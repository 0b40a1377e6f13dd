"""Spans around the public functions of each ``kdcheck`` module.

The tracer wraps functions from outside the package: every module
attribute that binds a traced function is replaced by a timing wrapper,
and ``uninstall`` puts the originals back.  Spans stay in memory with the
id of the span that was open when they started; self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# The layers, one per package module.  ``None`` traces every public
# function defined in the module.  The CLI is traced at its entry point and
# its serializer only, so ``cli.main``'s self time is parsing and output.
# ``hashing.digits`` and ``undigits`` run once per table cell (about 10^6
# calls per hash-scale pass) and are left untraced: their spans would cost
# more than the work they time.
LAYERS: Dict[str, Optional[Tuple[str, ...]]] = {
    "verify": None,
    "cli": ("main", "jsonable"),
    "markov": None,
    "semigroup": None,
    "quadrature": None,
    "hashing": None,
    "quantum": None,
    "treeproc": None,
    "entropy": None,
    "core": None,
}
UNTRACED = {"hashing.digits", "hashing.undigits"}


def _grid_factor(eta: int) -> int:
    return math.factorial(eta // 2) * 2 ** (eta // 2)


def _tree_points(fn, args, kwargs):
    """Path values generated: reps * (f(eta) + 1) * dim at the finest level."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    eta = a["eta"] if "eta" in a else max(a["etas"])
    return a["reps"] * (_grid_factor(eta) + 1) * a["dim"]


# Work counts recorded on a span, from the call's arguments or result.
COUNTERS: Dict[str, Callable] = {
    "semigroup.apply": lambda fn, a, kw, out: len(out),
    "quadrature.tensor_rule": lambda fn, a, kw, out: len(out[1]),
    "hashing.build_family": lambda fn, a, kw, out: out.group_size * out.q**out.m,
    "treeproc.simulate_ensemble": lambda fn, a, kw, out: _tree_points(fn, a, kw),
    "treeproc.refinement_delta": lambda fn, a, kw, out: _tree_points(fn, a, kw),
}


@dataclasses.dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    failed: bool = False
    count: int = 0


PACKAGE = "kdcheck"


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = True
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(len(self.spans), stack[-1] if stack else None, name,
                        time.perf_counter())
            self.spans.append(span)
            stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.count = counter(fn, args, kwargs, out)
            return out

        traced.__traced__ = fn
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced, as oracles' calls must."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- installing --------------------------------------------------------

    def targets(self) -> Dict[int, Tuple[str, Callable]]:
        """Original function id -> (span name, function) for every layer."""
        out = {}
        for layer, names in LAYERS.items():
            module = sys.modules["%s.%s" % (PACKAGE, layer)]
            for attr, value in vars(module).items():
                if not (inspect.isfunction(value) and value.__module__ == module.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                if attr.startswith("_") or name in UNTRACED:
                    continue
                if names is None or attr in names:
                    out[id(value)] = (name, value)
        return out

    def install(self) -> None:
        """Patch every namespace of the package that binds a traced function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is targets[id(value)][1]:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        # The acceptance registry holds its check functions in a tuple.
        verify = sys.modules["%s.verify" % PACKAGE]
        checks = verify.CHECKS
        self._undo.append((verify, "CHECKS", checks))
        verify.CHECKS = tuple(
            dataclasses.replace(c, fn=wrappers[id(c.fn)]) if id(c.fn) in wrappers
            else c for c in checks)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Self time and aggregation
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


@dataclasses.dataclass
class Totals:
    calls: int = 0
    fail: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    count: int = 0


def aggregate(spans: Sequence[Span]) -> Dict[str, Totals]:
    out: Dict[str, Totals] = defaultdict(Totals)
    for s, own in zip(spans, self_times(spans)):
        t = out[s.name]
        t.calls += 1
        t.fail += s.failed
        t.self_s += own
        t.total_s += s.end - s.start
        t.count += s.count
    return dict(out)


def calls_under(spans: Sequence[Span], name: str, ancestor: str) -> int:
    """Spans named ``name`` that ran inside a span named ``ancestor``."""
    by_id = {s.id: s for s in spans}
    hits = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != ancestor:
            p = by_id[p].parent
        hits += p is not None
    return hits
