"""In-memory spans around the public functions of each sl2endo module.

A layer is a module of the package.  The tracer wraps every public
module-level function of each layer, plus the methods named in METHODS, by
replacing attributes in this process: each module namespace that holds the
function (``from .x import f`` makes copies) and each class that defines the
method.  The package's source is never edited, and ``uninstall`` puts every
original back.

Each call records its span's self time (duration minus the time covered by
child spans), the calls along each parent -> child edge, and the exceptions
that leave it.  The first ``span_cap`` spans of a pass are also kept in full
(id, parent id, request, name, start, end) and written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("localfield", "torus", "residue", "cyclotomic", "charformulas", "endoscopy", "cli")

# Methods traced besides the public module-level functions: span name ->
# (module, class, attributes).  The CycNumber operators share one span name.
METHODS = {
    "cyclotomic.arith": (
        "cyclotomic",
        "CycNumber",
        ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
         "scale", "__eq__"),
    ),
    "cyclotomic.promote": ("cyclotomic", "CycNumber", ("promote",)),
    "residue.character_value": ("residue", "NormOneGroup", ("character_value",)),
    "endoscopy.to_record": ("endoscopy", "VerificationReport", ("to_record",)),
    "cli.emit": ("cli", "Emitter", ("emit",)),
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield attr, obj


class Tracer:
    """Collects per-span-name call counts and self time while installed."""

    def __init__(self, span_cap: int = 0):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.errors: Counter = Counter()  # (name, exception class name) -> count
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.request = lambda: 0  # id of the request (sampled element) in flight
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def reset(self) -> None:
        """Zero the aggregates for a new pass; kept spans stay."""
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.errors.clear()
        self.edges.clear()

    def wrap(self, name: str, fn):
        stack, errors, edges, spans = self._stack, self.errors, self.edges, self.spans
        stat = self.stats.setdefault(name, [0, 0.0])
        ids, tracer = self._ids, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, next(ids)]  # name, child time, span id
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    edges[parent[0], name] += 1
                if len(spans) < tracer.span_cap:
                    spans.append((frame[2], parent and parent[2], tracer.request(),
                                  name, start, end))

        return traced

    def install(self) -> None:
        """Replace the traced functions and methods with span-recording wrappers."""
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"sl2endo.{layer}"]
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sl2endo" and not mod_name.startswith("sl2endo."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, obj, wrapper)
        for span, (layer, cls_name, attrs) in METHODS.items():
            owner = getattr(sys.modules[f"sl2endo.{layer}"], cls_name)
            for attr in attrs:
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(span, original))

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
