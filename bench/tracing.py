"""Spans and counts around the public functions of each symrank layer.

`Tracer.installed()` replaces each function named in TIMED and COUNTED at
every binding site: module attributes of every loaded `symrank` module that
refer to it (`cli`, `spectra`, `designs` and `families` bind names with
`from ... import`), and the class attribute for methods.  Leaving the block
restores the originals, so untraced and traced batches alternate in one run.

A span records its name, thread, start, end and the span that caused it.
Each thread keeps its own stack and span list, because batch commands run
spans on pool threads; a pool thread's outermost span is charged to the span
open on the main thread.  Spans stay in memory until `collect()`.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (layer.function, module, attribute path): a span per call
TIMED = (
    ("cli", "symrank.cli", "main"),
    ("exactfield.square_free_part", "symrank.exactfield", "square_free_part"),
    ("exactfield.parse_scalar", "symrank.exactfield", "parse_scalar"),
    ("linalg.from_csv", "symrank.linalg", "Matrix.from_csv"),
    ("linalg.rank", "symrank.linalg", "Matrix.rank"),
    ("ensemble.matrix_from_bigraph", "symrank.ensemble", "matrix_from_bigraph"),
    ("ensemble.matrix_from_tournament", "symrank.ensemble", "matrix_from_tournament"),
    ("ensemble.random_tournament", "symrank.ensemble", "random_tournament"),
    ("ensemble.mu_squared", "symrank.ensemble", "mu_squared"),
    ("spectra.rank_sandwich", "symrank.spectra", "rank_sandwich"),
    ("spectra.bigraph_multiplicity", "symrank.spectra", "bigraph_multiplicity"),
    ("spectra.low_rank_matching_instance", "symrank.spectra", "low_rank_matching_instance"),
    ("designs.hadamard_validate", "symrank.designs", "HadamardMatrix.__init__"),
    ("designs.paley", "symrank.designs", "paley"),
    ("designs.sylvester", "symrank.designs", "sylvester"),
    ("designs.symmetric_design_validate", "symrank.designs", "SymmetricDesign.__init__"),
    ("designs.design_rank_instance", "symrank.designs", "design_rank_instance"),
    ("families.search_bisection_closed", "symrank.families", "search_bisection_closed"),
    ("families.hadamard_family", "symrank.families", "hadamard_family"),
    ("families.theta_violation", "symrank.families", "theta_violation"),
)

# (counter, module, attribute path): a count per call, too frequent for spans
COUNTED = (
    ("exactfield.quadext_new", "symrank.exactfield", "QuadExt.__init__"),
    ("ensemble.pair_value", "symrank.ensemble", "TwoValuePair.value_aa"),
    ("ensemble.pair_value", "symrank.ensemble", "TwoValuePair.value_ab"),
    ("ensemble.pair_value", "symrank.ensemble", "TwoValuePair.value_ba"),
    ("ensemble.pair_value", "symrank.ensemble", "TwoValuePair.value_bb"),
)


class _ThreadState:
    __slots__ = ("thread", "stack", "spans", "counts", "main")

    def __init__(self):
        self.thread = threading.current_thread()
        self.main = self.thread is threading.main_thread()
        self.stack: list[int] = []
        # (name, span id, parent id, start, end, detail)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = self._state()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, func, keep_args: bool):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            elif not state.main and self._main.stack:
                parent = self._main.stack[-1]
            else:
                parent = 0
            span = next(self._ids)
            stack.append(span)
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                detail = (args[0], result) if keep_args else None
                state.spans.append((name, span, parent, start, end, detail))

        return traced

    def _counted(self, name: str, func):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self._state().counts[name] += 1
            return func(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding site for the duration of the block."""
        undo = []
        try:
            for name, module, path in TIMED:
                wrap = functools.partial(self._timed, name, keep_args=(name == "linalg.rank"))
                undo += _patch(module, path, wrap)
            for name, module, path in COUNTED:
                undo += _patch(module, path, functools.partial(self._counted, name))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------------

    def collect(self) -> dict:
        """Per-layer totals of the spans and counts recorded since the last call."""
        with self._lock:
            states = self._states
            # pool threads end with their command; their states are drained below
            self._states = [s for s in states if s.thread.is_alive()]
        spans, counts = [], Counter()
        for state in states:
            spans += [(s, state.main) for s in state.spans]
            state.spans = []
            counts += state.counts
            state.counts = Counter()

        children = defaultdict(list)
        for (_, _, parent, start, end, _), main in spans:
            children[parent].append((start, end, main))
        totals = Counter({f"{name}.calls": n for name, n in counts.items()})
        main_self = offthread = 0.0
        for (name, span, parent, start, end, detail), main in spans:
            covered = _covered(start, end, children.get(span, ()))
            self_time = end - start - covered
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += self_time
            if main:
                main_self += self_time
                offthread += covered - sum(e - s for s, e, m in children.get(span, ()) if m)
            if detail is not None:  # linalg.rank: shape, field and deficiency
                matrix, rank = detail
                quad = any(getattr(x, "b", 0) for x in matrix.entries())
                totals["linalg.rank.quad_s" if quad else "linalg.rank.int_s"] += end - start
                totals["linalg.rank.cells"] += matrix.rows * matrix.cols
                if rank is not None and rank < min(matrix.rows, matrix.cols):
                    totals["linalg.rank.deficient"] += 1
        totals["main_thread.accounted_s"] = main_self + offthread
        return totals


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for s, e, _ in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def _patch(module_name: str, path: str, wrap) -> list[tuple]:
    """Replace the function at `path` wherever symrank binds it; returns the undo list."""
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(wrap(original.__func__)))
        else:
            setattr(cls, attr, wrap(original))
        return [(cls, attr, original)]
    original = getattr(module, path)
    wrapper = wrap(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "symrank" or name.startswith("symrank.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
    return undo
