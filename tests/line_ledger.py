"""The line ledger: every executable line in src runs in some test, or is
listed with the reason it stays.

Run from the repository root, after the test suite passes:

    PYTHONPATH=src python tests/line_ledger.py

It runs the test suite in this process under sys.settrace and
threading.settrace, with a line tracer on frames of src code only, then
reads every executable src line from the code objects' co_lines and lists
those that no test executed.  A line is named by its module and its
stripped source text; a function that never runs at all is named once, by
its first line.  The ledger exits 1 when an unexecuted line is not in
UNEXECUTED, when an entry of UNEXECUTED ran or is gone, or when the suite
fails.  Lines that only a child process runs (the suite starts some) do not
count, since the tracer sees this process alone.  The name keeps pytest
from collecting it.
"""

import importlib.util
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.realpath(importlib.util.find_spec("sl2endo").origin))

# The src lines that no test executes, each with the reason it stays.
UNEXECUTED = {
    ("cli", "def console_main() -> None:"): "entry point of the installed sl2endo"
    " script: tests run it only as a process",
    ("cli", "console_main()"): "the python -m sl2endo.cli entry: tests run it only as"
    " a process",
    ("torus", 'raise AssertionError("norm-one element with b in (p) must have'
     ' a = +-1 mod p")'): "an invariant: a^2 - eps*b^2 = 1 with p | b forces"
    " a = +-1 mod p, so no element reaches it",
}

executed: set[tuple[str, int]] = set()  # (file, line)
entered: set[tuple[str, int, str]] = set()  # (file, first line, name) of each code run
_is_src: dict[str, bool] = {}


def _in_src(filename: str) -> bool:
    known = _is_src.get(filename)
    if known is None:
        known = _is_src[filename] = os.path.dirname(os.path.realpath(filename)) == SRC
    return known


def _local(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    """On each call: trace the frame's lines if its code is in src."""
    code = frame.f_code
    if not _in_src(code.co_filename):
        return None
    entered.add((code.co_filename, code.co_firstlineno, code.co_name))
    executed.add((code.co_filename, frame.f_lineno))
    return _local


def code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from code_objects(const)


def unexecuted_lines() -> dict[tuple[str, str], list[str]]:
    """{(module, stripped source text): ["file:line", ...]} of the executable
    src lines that did not run; a code object that never ran is named by its
    first line alone."""
    ran = {(os.path.realpath(name), line) for name, line in executed}
    run = {(os.path.realpath(name), first, code) for name, first, code in entered}
    found: dict[tuple[str, str], list[str]] = {}
    for path in sorted(Path(SRC).glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for code in code_objects(compile(source, str(path), "exec")):
            if (str(path), code.co_firstlineno, code.co_name) not in run:
                missed = [code.co_firstlineno]
            else:
                lines = sorted({line for _, _, line in code.co_lines() if line})
                missed = [line for line in lines if (str(path), line) not in ran]
            for line in missed:
                key = (path.stem, text[line - 1].strip())
                found.setdefault(key, []).append(f"{path.name}:{line}")
    return found


def main() -> int:
    if "sl2endo" in sys.modules:
        raise RuntimeError("sl2endo is imported: its import-time lines would go untraced")
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(
            [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"line ledger: the test suite exited {code}", file=sys.stderr)
        return 1
    found = unexecuted_lines()
    unlisted = sorted(set(found) - set(UNEXECUTED))
    stale = sorted(set(UNEXECUTED) - set(found))
    for key in unlisted:
        print(f"executed by no test and not listed: {key} at {', '.join(found[key])}",
              file=sys.stderr)
    for key in stale:
        print(f"listed, but executed or gone: {key}", file=sys.stderr)
    if unlisted or stale:
        return 1
    print(f"line ledger: every executable src line runs in a test but the {len(found)}"
          " listed in UNEXECUTED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
