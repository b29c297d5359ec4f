"""The reach ledger: every function in src runs in some CLI sweep, or is listed
with the reason it stays.

A fresh interpreter sets sys.setprofile before it imports sl2endo, so the
calls that build module constants at import time count too.  It then runs
SWEEPS through cli.main and prints the first line of every src code object
it called.  The test matches those with the module-level functions and the
class methods of every src module (by file and first line, since Python
3.10 code objects have no co_qualname).
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import sl2endo

SRC = os.path.dirname(os.path.realpath(sl2endo.__file__))

# Small sweeps over every mode and format, each s, the regular packet with
# and without --level, a far-only sweep at the lowest precision, falsify
# above the default precision, and the table of one level.
SWEEPS = (
    "verify --primes 3,5 --samples 6",
    "verify --primes 3 --samples 4 --format csv",
    "verify --primes 3 --samples 4 --format table",
    "verify --primes 3,5 --samples 4 --s 1",
    "verify --primes 3 --samples 4 --s s2",
    "verify --primes 3 --samples 4 --s s3",
    "verify --packet regular --primes 3,5 --samples 4",
    "verify --packet regular --primes 5 --level 1 --samples 4",
    "verify --primes 3 --class far --precision 4 --samples 4",
    "falsify --primes 3,5 --samples 4",
    "falsify --primes 3 --samples 2 --format csv",
    "falsify --primes 3 --samples 2 --format table",
    "falsify --primes 3 --samples 4 --precision 12",
    "properties --primes 3,5 --samples 4",
    "properties --primes 3 --samples 4 --format table",
    "table --primes 3,5",
    "table --primes 5 --level 1",
)

# The src functions that no sweep reaches, each with the reason it stays.
UNREACHED = {
    "cli.console_main": "entry point of the installed sl2endo script",
    "cyclotomic.CycNumber.promote": "patched by name in bench/spans.py",
    "cyclotomic.CycNumber.__rsub__": "patched by name in bench/spans.py",
    "endoscopy.VerificationReport.to_record": "patched by name in bench/spans.py",
    "torus.element": "the public reducing constructor",
}

_PROBE = """
import contextlib, io, json, os, sys
called = set()

def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(record)
import sl2endo
from sl2endo import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv.split()))
sys.setprofile(None)
src = os.path.dirname(os.path.realpath(sl2endo.__file__))
where = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in called}
print(json.dumps({"codes": codes, "called": sorted(w for w in where if os.path.dirname(w[0]) == src)}))
"""


def src_functions():
    """{"module.Qual.name": (file, first line)} of the module-level functions
    and class methods written in src (dataclass-generated methods and names
    imported from another module are not)."""
    found = {}

    def add(module, obj):
        if isinstance(obj, property):
            candidates = (obj.fget, obj.fset, obj.fdel)
        else:
            candidates = (getattr(obj, "__func__", obj),)  # a static or class method
        path = os.path.realpath(module.__file__)
        for fn in map(inspect.unwrap, candidates):  # an lru_cache wraps its function
            if inspect.isfunction(fn) and os.path.realpath(fn.__code__.co_filename) == path:
                name = f"{module.__name__.rpartition('.')[2]}.{fn.__qualname__}"
                found[name] = (path, fn.__code__.co_firstlineno)

    for info in pkgutil.iter_modules(sl2endo.__path__):
        module = importlib.import_module(f"sl2endo.{info.name}")
        for obj in vars(module).values():
            for attr in vars(obj).values() if inspect.isclass(obj) else (obj,):
                add(module, attr)
    return found


def probe():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(SWEEPS)],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    ).stdout
    return json.loads(out)


def test_every_src_function_is_reached_or_listed():
    result = probe()
    assert result["codes"] == [0] * len(SWEEPS)
    called = {tuple(pair) for pair in result["called"]}
    functions = src_functions()
    unreached = {name for name, where in functions.items() if where not in called}
    assert sorted(unreached - set(UNREACHED)) == [], "reached by no sweep and not listed"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, but reached or gone"
