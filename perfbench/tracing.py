"""Outside-in tracing: spans around the public entry points of each layer.

Nothing under ``src/`` knows about this module.  :func:`installed`
replaces a fixed table of public functions and methods with wrappers
that open a span, count work at the same boundary, and restore the
originals on exit.  Spans stay in memory for the whole traced run and
are reduced once at the end.

A span records its name, the layer (``repro`` module) it belongs to,
its start and end, its parent, and the operation it served; all spans
of one benchmark operation share that operation's id.  A layer's self
time is the sum over its spans of each span's duration minus the part
of it that child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The layers self time is attributed to: the ``repro`` modules the
#: wrapped entry points live in, plus the benchmark's own root span.
LAYERS = (
    "models",
    "nn",
    "engine",
    "analysis",
    "optimize",
    "check",
    "pipeline",
    "cache",
    "experiments",
    "quant.runtime",
)
ROOT_LAYER = "benchmark"


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: int  # index into the recorder's span list; -1 for a root
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded in-memory span stack plus boundary counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, layer, self.op, parent, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - _union_length(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS + (ROOT_LAYER,)}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def busy_seconds(spans: Sequence[Span], name: str) -> float:
    """Wall time covered by spans of one name (nested repeats once)."""
    return _union_length([(s.start, s.end) for s in spans if s.name == name])


def covered_share(spans: Sequence[Span], names: Sequence[str]) -> float:
    """Share of the root spans' time covered by spans of ``names``."""
    roots = sum(s.duration for s in spans if s.parent < 0)
    if roots <= 0:
        return 0.0
    chosen = [(s.start, s.end) for s in spans if s.name in names]
    return _union_length(chosen) / roots


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
After = Callable[["SpanRecorder", tuple, dict, Any], None]


def _spanned(
    recorder: SpanRecorder,
    original: Callable[..., Any],
    name: str,
    layer: str,
    after: Optional[After] = None,
) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name, layer):
            result = original(*args, **kwargs)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    return wrapper


def _network_forward(
    recorder: SpanRecorder, original: Callable[..., Any]
) -> Callable[..., Any]:
    """``Network.forward``: a span, except inside the integer runtime.

    ``QuantizedNetwork.forward`` drives ``Network.forward`` with its own
    per-layer function, so there the float graph walk is the runtime's
    work: it is counted but not spanned, and lands in quant.runtime.
    """

    @functools.wraps(original)
    def wrapper(network: Any, x: Any, *args: Any, **kwargs: Any) -> Any:
        recorder.count("nn.forward.calls")
        recorder.count("nn.forward.images", int(x.shape[0]))
        if recorder.inside("quant.forward"):
            return original(network, x, *args, **kwargs)
        with recorder.span("nn.forward", "nn"):
            return original(network, x, *args, **kwargs)

    return wrapper


def _top1_accuracy(
    recorder: SpanRecorder, original: Callable[..., Any]
) -> Callable[..., Any]:
    """The pipeline's accuracy calls: tapped = validation, else baseline."""

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if kwargs.get("taps") is not None:
            name, layer = "pipeline.validate", "pipeline"
        else:
            name, layer = "models.evaluate.baseline", "models"
        with recorder.span(name, layer):
            return original(*args, **kwargs)

    return wrapper


def _optimize(
    recorder: SpanRecorder, original: Callable[..., Any]
) -> Callable[..., Any]:
    """``PrecisionOptimizer.optimize``; a call that never allocates was
    restored from the store, and its stored backoff count is not work."""

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        allocations = recorder.counts["optimize.allocate.calls"]
        with recorder.span("pipeline.optimize", "pipeline"):
            outcome = original(*args, **kwargs)
        if recorder.counts["optimize.allocate.calls"] > allocations:
            recorder.count("pipeline.backoff_steps", outcome.backoff_steps)
        else:
            recorder.count("pipeline.outcomes_restored")
        return outcome

    return wrapper


def _after_sigma(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("analysis.sigma_search.evaluations", len(result.evaluations))
    rec.count(
        "analysis.sigma_search.evaluations_saved", result.num_evaluations_saved
    )


def _after_profile(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    for stage, seconds in result.timings.items():
        rec.count(f"engine.{stage}_s", seconds)


def _after_allocate(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("optimize.allocate.calls")
    if result.solution is not None:
        rec.count("optimize.allocate.solver_iterations", result.solution.num_iterations)


def _after_audit(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("check.audit.calls")


def _after_gemm(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    a, b = args[0], args[1]
    rec.count("quant.gemm.calls")
    rec.count("quant.gemm.macs", int(a.shape[0]) * int(a.shape[1]) * int(b.shape[1]))


def _after_sweep(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("experiments.sweep.cells", len(result.cells))
    rec.count(
        "experiments.sweep.cell_busy_s",
        sum(cell.elapsed_seconds for cell in result.cells),
    )


class _CacheCounterTap:
    """Per-store counter deltas over the traced run (stores seen there)."""

    def __init__(self) -> None:
        self.before: Dict[int, Tuple[Any, Dict[str, int]]] = {}

    def wrap(
        self,
        recorder: SpanRecorder,
        original: Callable[..., Any],
        name: str,
    ) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(store: Any, *args: Any, **kwargs: Any) -> Any:
            if id(store) not in self.before:
                self.before[id(store)] = (store, store.counters.as_dict())
            with recorder.span(name, "cache"):
                return original(store, *args, **kwargs)

        return wrapper

    def totals(self) -> Dict[str, int]:
        sums: Dict[str, int] = defaultdict(int)
        for store, before in self.before.values():
            for key, value in store.counters.as_dict().items():
                sums[key] += value - before[key]
        return dict(sums)


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[_CacheCounterTap]:
    """Wrap every traced entry point; restore the originals on exit.

    Functions are wrapped where their caller looks them up (for
    example ``integer_gemm`` as bound in ``repro.quant.runtime.network``),
    which is why the owners below are modules as often as classes.
    """
    import repro.check
    import repro.experiments.scheduler as scheduler
    import repro.pipeline.optimizer as optimizer_module
    import repro.quant.runtime.network as qnet
    from repro.analysis.profiler import ErrorProfiler
    from repro.cache import ResultCache
    from repro.engine.campaign import InjectionEngine
    from repro.nn.graph import Network
    from repro.pipeline import PrecisionOptimizer
    from repro.quant.runtime import QuantizedNetwork

    cache_tap = _CacheCounterTap()
    rec = recorder

    def spanned(name: str, layer: str, after: Optional[After] = None):
        return lambda original: _spanned(rec, original, name, layer, after)

    table: List[Tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]] = [
        (Network, "forward", lambda f: _network_forward(rec, f)),
        (optimizer_module, "measure_ranges", spanned("nn.statistics", "nn")),
        (optimizer_module, "top1_accuracy", lambda f: _top1_accuracy(rec, f)),
        (optimizer_module, "find_sigma",
         spanned("analysis.sigma_search", "analysis", _after_sigma)),
        (ErrorProfiler, "profile",
         spanned("analysis.profiler.profile", "analysis", _after_profile)),
        (ErrorProfiler, "profile_around",
         spanned("analysis.profiler.refine", "analysis", _after_profile)),
        (InjectionEngine, "run", spanned("engine.campaign", "engine")),
        (optimizer_module, "allocate_optimized",
         spanned("optimize.allocate", "optimize", _after_allocate)),
        (repro.check, "audit_allocation_result",
         spanned("check.audit", "check", _after_audit)),
        (repro.check, "verify_network", spanned("check.verify", "check")),
        (PrecisionOptimizer, "optimize", lambda f: _optimize(rec, f)),
        (ResultCache, "get_json", lambda f: cache_tap.wrap(rec, f, "cache.get")),
        (ResultCache, "get_arrays", lambda f: cache_tap.wrap(rec, f, "cache.get")),
        (ResultCache, "put_json", lambda f: cache_tap.wrap(rec, f, "cache.put")),
        (ResultCache, "put_arrays", lambda f: cache_tap.wrap(rec, f, "cache.put")),
        (scheduler, "run_sweep",
         spanned("experiments.sweep", "experiments", _after_sweep)),
        (QuantizedNetwork, "forward", spanned("quant.forward", "quant.runtime")),
        (qnet, "integer_gemm", spanned("quant.gemm", "quant.runtime", _after_gemm)),
        (qnet, "quantize_to_codes", spanned("quant.quantize", "quant.runtime")),
        (qnet, "pack_codes", spanned("quant.pack", "quant.runtime")),
        (qnet, "unpack_codes", spanned("quant.pack", "quant.runtime")),
        (qnet, "requantize", spanned("quant.requantize", "quant.runtime")),
    ]
    saved = []
    try:
        for owner, attr, make in table:
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield cache_tap
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
