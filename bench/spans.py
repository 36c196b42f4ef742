"""In-memory span recorder for the traced, in-process benchmark run.

`install(recorder)` wraps every public function of the amoments layer modules
and rebinds the wrapper in every amoments module namespace that binds the
same function object.  That matters because `selmer`, `redei` and `moments`
import `jacobi`, `kronecker` and `hilbert_symbol` by name: a wrapper placed on
`arith` alone would miss their calls.  The public methods of `Gf2Matrix` are
wrapped on the class.

Spans nest: a span's self time is its duration minus the durations of the
spans it directly caused.  Per-name aggregates (calls, self seconds, total
seconds) and the per-edge caller counts are kept in memory and read out once
the run ends.

The scalar kernels in `SAMPLED` run up to millions of times per workload for
about a microsecond each, so reading the clock twice on every
call would dominate the traced run.  Those wrappers count every call but time
only one call in `SAMPLE_EVERY`; their self time is the sampled time scaled to
the call count, and the same scaled estimate is charged to the calling span so
its self time stays comparable.  Sampled functions must be leaves (they call
no other wrapped function).  `trace.overhead_ratio` in the report measures
what the recorder costs overall.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("arith", "gf2", "redei", "quadforms", "selmer", "moments", "cli")
SAMPLED = frozenset({"arith.jacobi", "arith.is_prime", "arith.ext_gcd"})
SAMPLE_EVERY = 16


class Recorder:
    """Span aggregates and work counts of one traced run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._sampled: dict[str, list] = {}
        # one frame per open span: [name, seconds covered by child spans]
        self._stack: list[list] = [["<root>", 0.0]]

    def table(self) -> dict:
        """Aggregates as plain data: {name: {calls, self_s, total_s}} plus
        work counts and caller edges."""
        spans = {}
        for name in set(self.calls) | set(self._sampled):
            if name in self._sampled:
                calls, timed, seconds = self._sampled[name]
                scaled = seconds * calls / timed if timed else 0.0
                spans[name] = {"calls": calls, "self_s": scaled, "total_s": scaled}
            else:
                spans[name] = {
                    "calls": self.calls[name],
                    "self_s": self.self_s[name],
                    "total_s": self.total_s[name],
                }
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "edges": [[caller, callee, n] for (caller, callee), n in sorted(self.edges.items())],
        }


def _timed(rec: Recorder, name: str, fn, before=None, after=None):
    stack = rec._stack

    def wrapper(*args, **kwargs):
        if before:
            before(rec, args)
        parent = stack[-1]
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            rec.calls[name] += 1
            rec.self_s[name] += dur - frame[1]
            rec.total_s[name] += dur
            rec.edges[(parent[0], name)] += 1
            parent[1] += dur
        if after:
            after(rec, args, result)
        return result

    return wrapper


def _sampled(rec: Recorder, name: str, fn):
    stack = rec._stack
    agg = rec._sampled[name] = [0, 0, 0.0]  # calls, timed calls, timed seconds

    def wrapper(*args):
        agg[0] += 1
        if agg[0] % SAMPLE_EVERY:
            return fn(*args)
        t0 = perf_counter()
        result = fn(*args)
        dur = perf_counter() - t0
        agg[1] += 1
        agg[2] += dur
        stack[-1][1] += dur * SAMPLE_EVERY
        return result

    return wrapper


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def install(rec: Recorder, hooks: dict | None = None, private: tuple[str, ...] = ()) -> None:
    """Wrap the public functions of every layer module, plus the `private`
    ones named as "<layer>.<function>".

    hooks maps a span name to (before, after) callables that add work counts:
    before(rec, args) runs ahead of the call, after(rec, args, result) once
    the call has returned normally; either may be None.
    """
    import amoments  # noqa: F401  (loads every layer module)
    from amoments import gf2

    hooks = hooks or {}
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"amoments.{layer}"]
        extra = [(n.split(".")[1], getattr(module, n.split(".")[1])) for n in private if n.startswith(layer + ".")]
        for attr, fn in [*_public_functions(module), *extra]:
            name = f"{layer}.{attr}"
            if name in SAMPLED:
                replaced[id(fn)] = _sampled(rec, name, fn)
            else:
                replaced[id(fn)] = _timed(rec, name, fn, *hooks.get(name, (None, None)))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "amoments" or mod_name.startswith("amoments."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
    cls = gf2.Gf2Matrix
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"gf2.Gf2Matrix.{attr}"
        if inspect.isfunction(obj):
            setattr(cls, attr, _timed(rec, name, obj, *hooks.get(name, (None, None))))
        elif isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(_timed(rec, name, obj.__func__)))
