"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-cell --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs operations in a closed loop for ``--seconds``, checks
every output and prints the end-to-end metrics.  ``--trace 1`` sets up
once and runs every operation twice, untraced and with spans around
each layer's public entry points, and prints the per-layer metrics,
each layer's self time and the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--record`` instead rewrites ``fingerprints.json`` and
``provenance.json`` for the default seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.config import DEFAULT_SEED  # noqa: E402

from perfbench import measure, tracing, workloads  # noqa: E402

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Scratch space for store snapshots, inside the repository tree.
WORK_ROOT = ROOT / ".perfbench_tmp"

#: Spans predicted to cover most of each workload's traced time.
PREDICTED = {
    "cold-cell": ("analysis.sigma_search", "nn.forward"),
    "quant-infer": ("quant.forward",),
    "warm-resweep": ("optimize.allocate", "pipeline.validate", "cache.get", "cache.put"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "eff_input_bits": "bits",
    "traffic_bytes_per_image": "B",
    "accuracy_retained": "ratio",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def run_op(
    workload: workloads.Workload,
    index: int,
    recorder: Optional[tracing.SpanRecorder] = None,
) -> Tuple[Any, Optional[float]]:
    """One operation: (output, seconds).  A raising operation yields its
    exception and no time, so it counts as failed and stays out of the
    latencies."""
    workload.prepare(index)
    began = time.perf_counter()
    try:
        if recorder is None:
            output = workload.run(index)
        else:
            recorder.op = index
            with recorder.span("benchmark.op", tracing.ROOT_LAYER):
                output = workload.run(index)
    except Exception as exc:  # counted as a failed operation
        print(f"operation {index} raised {type(exc).__name__}: {exc}")
        return exc, None
    return output, time.perf_counter() - began


def closed_loop(
    workload: workloads.Workload, seconds: float
) -> Tuple[List[Any], List[float]]:
    """Operations back to back for ``seconds``, and at least one."""
    outputs: List[Any] = []
    times: List[float] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        output, seconds_taken = run_op(workload, index)
        outputs.append(output)
        if seconds_taken is not None:
            times.append(seconds_taken)
        index += 1
    return outputs, times


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run still uses it
        pass


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def untraced(name: str, spec: workloads.Spec, seed: int, seconds: float,
             workdir: Path, book: workloads.FingerprintBook,
             setups: int = SETUP_REPEATS) -> Tuple[List[bool], Dict[str, Any], List[str], Dict[str, Any]]:
    """Set up ``setups`` times, run the closed loop, check the outputs.

    Returns (check flags, end-to-end metrics, human lines, tail sample:
    the timed operation count and the tail percentile used).
    """
    setup_times: List[float] = []
    setup_flags: List[bool] = []
    workload = None
    for _ in range(setups):
        workload = workloads.WORKLOADS[name](spec, seed, workdir, book)
        began = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - began)
        setup_flags.extend(workload.setup_flags)
    outputs, times = closed_loop(workload, seconds)
    flags = workload.verify(outputs) + setup_flags
    tail, percentile = measure.tail(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "items_per_s": workload.items_per_op() * len(times) / sum(times),
        **workload.quality(outputs),
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    lines = [
        f"setup: {', '.join(f'{t:.2f}' for t in setup_times)} s (median of {setups})",
        f"operations: {len(outputs)} ({len(times)} timed), "
        f"tail = {'max' if percentile is None else f'p{percentile}'} "
        f"over {len(times)} samples",
    ]
    lines += workload_lines(name, workload, outputs, times, values)
    metrics = {key: metric(values[key], unit) for key, unit in END_TO_END_UNITS.items()}
    sample = {"operations": len(times), "tail_percentile": percentile or "max"}
    return flags, metrics, lines, sample


def workload_lines(name: str, workload: workloads.Workload, outputs: Sequence[Any],
                   times: Sequence[float], values: Dict[str, float]) -> List[str]:
    """Per-workload names for the generic metrics (see README.md)."""
    if name == "cold-cell":
        return [f"time_to_allocation_s = {values['op_p50_s']:.4f} s"]
    if name == "warm-resweep":
        return [f"resweep_s = {values['op_p50_s']:.4f} s"]
    assert isinstance(workload, workloads.QuantInfer)
    lines = [
        f"quant_images_per_s = {values['items_per_s']:.2f} img/s",
        f"quant_batch_p50_ms (round of one batch per model) = {1e3 * values['op_p50_s']:.3f} ms",
        f"quant_traffic_bytes_per_image = {values['traffic_bytes_per_image']:.1f} B",
    ]
    for model, latency in workload.per_model_latency(outputs).items():
        tail, percentile = measure.tail(latency)
        label = "max" if percentile is None else f"p{percentile}"
        lines.append(
            f"  {model}: batch p50 {1e3 * statistics.median(latency):.3f} ms, "
            f"{label} {1e3 * tail:.3f} ms over {len(latency)} batches"
        )
    return lines


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
PER_LAYER_UNITS = {
    "nn.forward.calls": "count",
    "nn.forward.images": "count",
    "nn.forward.busy_s": "s",
    "nn.statistics.stats_s": "s",
    "models.evaluate.baseline_s": "s",
    "analysis.sigma_search.busy_s": "s",
    "analysis.sigma_search.evaluations": "count",
    "analysis.sigma_search.evaluations_saved": "count",
    "analysis.profiler.profile_s": "s",
    "analysis.profiler.refine_s": "s",
    "engine.plan_s": "s",
    "engine.reference_s": "s",
    "engine.replay_s": "s",
    "engine.fit_s": "s",
    "optimize.allocate.calls": "count",
    "optimize.allocate.busy_s": "s",
    "optimize.allocate.solver_iterations": "count",
    "pipeline.validate.busy_s": "s",
    "pipeline.backoff_steps": "count",
    "check.audit.calls": "count",
    "check.audit.busy_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.writes": "count",
    "cache.bytes_read": "B",
    "cache.bytes_written": "B",
    "cache.hit_ratio": "ratio",
    "cache.get.busy_s": "s",
    "cache.put.busy_s": "s",
    "experiments.sweep.cells": "count",
    "experiments.sweep.cells_restored": "count",
    "experiments.sweep.cell_busy_s": "s",
    "quant.forward.calls": "count",
    "quant.forward.busy_s": "s",
    "quant.forward.self_s": "s",
    "quant.gemm.calls": "count",
    "quant.gemm.busy_s": "s",
    "quant.gemm.macs": "count",
    "quant.gemm.gflops": "GFLOP/s",
    "quant.quantize.busy_s": "s",
    "quant.pack.busy_s": "s",
    "quant.requantize.busy_s": "s",
    "quant.engine_ratio": "ratio",
}

#: Busy-time metrics read straight off the spans of one name.
BUSY_SPANS = {
    "nn.forward.busy_s": "nn.forward",
    "nn.statistics.stats_s": "nn.statistics",
    "models.evaluate.baseline_s": "models.evaluate.baseline",
    "analysis.sigma_search.busy_s": "analysis.sigma_search",
    "analysis.profiler.profile_s": "analysis.profiler.profile",
    "analysis.profiler.refine_s": "analysis.profiler.refine",
    "optimize.allocate.busy_s": "optimize.allocate",
    "pipeline.validate.busy_s": "pipeline.validate",
    "check.audit.busy_s": "check.audit",
    "cache.get.busy_s": "cache.get",
    "cache.put.busy_s": "cache.put",
    "quant.forward.busy_s": "quant.forward",
    "quant.gemm.busy_s": "quant.gemm",
    "quant.quantize.busy_s": "quant.quantize",
    "quant.pack.busy_s": "quant.pack",
    "quant.requantize.busy_s": "quant.requantize",
}

#: Counts read straight off the recorder.
COUNTED = (
    "nn.forward.calls",
    "nn.forward.images",
    "analysis.sigma_search.evaluations",
    "analysis.sigma_search.evaluations_saved",
    "engine.plan_s",
    "engine.reference_s",
    "engine.replay_s",
    "engine.fit_s",
    "optimize.allocate.calls",
    "optimize.allocate.solver_iterations",
    "pipeline.backoff_steps",
    "check.audit.calls",
    "experiments.sweep.cells",
    "experiments.sweep.cell_busy_s",
    "quant.gemm.calls",
    "quant.gemm.macs",
)


def traffic_layers() -> List[Tuple[str, str]]:
    """(model, layer) pairs whose measured traffic the traced run reports."""
    from repro.models import build_model

    return [
        (model, layer)
        for model in workloads.SPECS["quant-infer"].models
        for layer in build_model(model).analyzed_layer_names
    ]


def per_layer_names() -> Dict[str, str]:
    names = dict(PER_LAYER_UNITS)
    for model, layer in traffic_layers():
        names[f"quant.traffic_bytes.{model}.{layer}"] = "B"
    for layer in tracing.LAYERS + (tracing.ROOT_LAYER,):
        names[f"layer.{layer}.self_s"] = "s"
    names.update({
        "trace.untraced_s": "s",
        "trace.traced_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.predicted_share": "ratio",
    })
    return names


def layer_values(recorder: tracing.SpanRecorder, cache_totals: Dict[str, int]) -> Dict[str, float]:
    spans = recorder.spans
    values: Dict[str, float] = {key: 0.0 for key in PER_LAYER_UNITS}
    for key, name in BUSY_SPANS.items():
        values[key] = tracing.busy_seconds(spans, name)
    for key in COUNTED:
        values[key] = float(recorder.counts.get(key, 0.0))
    values["experiments.sweep.cells_restored"] = float(
        recorder.counts.get("pipeline.outcomes_restored", 0.0)
    ) if values["experiments.sweep.cells"] else 0.0
    values["quant.forward.calls"] = float(sum(s.name == "quant.forward" for s in spans))
    kernels = sum(values[f"quant.{k}.busy_s"] for k in ("gemm", "quantize", "pack", "requantize"))
    values["quant.forward.self_s"] = values["quant.forward.busy_s"] - kernels
    if values["quant.gemm.busy_s"] > 0:
        values["quant.gemm.gflops"] = 2.0 * values["quant.gemm.macs"] / values["quant.gemm.busy_s"] / 1e9
    for key in ("hits", "misses", "writes", "bytes_read", "bytes_written"):
        values[f"cache.{key}"] = float(cache_totals.get(key, 0))
    lookups = values["cache.hits"] + values["cache.misses"]
    values["cache.hit_ratio"] = values["cache.hits"] / lookups if lookups else 0.0
    for layer, seconds in tracing.layer_self_times(spans).items():
        values[f"layer.{layer}.self_s"] = seconds
    return values


def traced(name: str, spec: workloads.Spec, seed: int, seconds: float,
           workdir: Path, book: workloads.FingerprintBook,
           spans_out: Optional[Path] = None) -> Tuple[List[bool], Dict[str, Any], List[str]]:
    workload = workloads.WORKLOADS[name](spec, seed, workdir, book)
    workload.setup()
    # Each operation runs twice, untraced and traced, alternating which
    # goes first, so warm-up and drift on the host fall on both sides.
    recorder = tracing.SpanRecorder()
    plain_outputs: List[Any] = []
    plain_times: List[float] = []
    traced_outputs: List[Any] = []
    traced_times: List[float] = []
    cache_totals: Dict[str, int] = {}
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < 2 * seconds:
        for with_spans in ((False, True) if index % 2 == 0 else (True, False)):
            if with_spans:
                with tracing.installed(recorder) as cache_tap:
                    output, taken = run_op(workload, index, recorder)
                for key, value in cache_tap.totals().items():
                    cache_totals[key] = cache_totals.get(key, 0) + value
                outputs, times = traced_outputs, traced_times
            else:
                output, taken = run_op(workload, index)
                outputs, times = plain_outputs, plain_times
            outputs.append(output)
            if taken is not None:
                times.append(taken)
        index += 1
    if spans_out is not None:
        write_spans(recorder.spans, spans_out)
    flags = workload.verify(plain_outputs) + workload.verify(traced_outputs) + workload.setup_flags

    values = {key: 0.0 for key in per_layer_names()}
    values.update(layer_values(recorder, cache_totals))
    if isinstance(workload, workloads.QuantInfer):
        values.update(quant_extras(workload, plain_times))
    untraced_s, traced_s = sum(plain_times), sum(traced_times)
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    values["trace.predicted_share"] = tracing.covered_share(recorder.spans, PREDICTED[name])

    program = sum(values[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    ranked = sorted(tracing.LAYERS, key=lambda layer: -values[f"layer.{layer}.self_s"])
    lines = [f"self time by layer ({len(recorder.spans)} spans over {len(traced_times)} operations):"]
    lines += [
        f"  {layer:<14} {values[f'layer.{layer}.self_s']:9.4f} s"
        for layer in ranked + [tracing.ROOT_LAYER]
    ]
    share = values["trace.predicted_share"]
    lines += [
        f"layers' self time {program:.4f} s vs untraced end-to-end {untraced_s:.4f} s "
        f"(traced {traced_s:.4f} s, overhead {traced_s - untraced_s:+.4f} s)",
        f"prediction {' + '.join(PREDICTED[name])} dominates: "
        f"{'met' if share > 0.5 else 'NOT met'} ({100 * share:.1f}% of traced time)",
    ]
    units = per_layer_names()
    metrics = {key: metric(values[key], unit) for key, unit in units.items()}
    return flags, metrics, lines


def write_spans(spans: Sequence[tracing.Span], path: Path) -> None:
    """All spans as JSON lines, written once after the traced pass."""
    with path.open("w") as handle:
        for span, own in zip(spans, tracing.self_times(spans)):
            handle.write(json.dumps({
                "name": span.name, "layer": span.layer, "op": span.op,
                "parent": span.parent, "start": span.start, "end": span.end,
                "self_s": own,
            }) + "\n")


def quant_extras(workload: workloads.QuantInfer, plain_times: Sequence[float]) -> Dict[str, float]:
    """Measured traffic per layer, and integer-runtime time over the
    fp64 engine kernels' time for the same batches."""
    from repro.engine.kernels import KernelScratch, make_forward_fn

    values: Dict[str, float] = {}
    for model in workload.models:
        for layer, bits in model.runtime.measured_input_bits().items():
            values[f"quant.traffic_bytes.{model.name}.{layer}"] = bits / 8.0
    engine_s = 0.0
    forward_fns = {m.name: make_forward_fn(KernelScratch()) for m in workload.models}
    for index in range(len(plain_times)):
        batch = workload.batch_index(index)
        for model in workload.models:
            began = time.perf_counter()
            model.network.forward(model.batches[batch], forward_fn=forward_fns[model.name])
            engine_s += time.perf_counter() - began
    values["quant.engine_ratio"] = sum(plain_times) / engine_s
    return values


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def record(workdir: Path, seconds: float) -> None:
    """Rewrite fingerprints.json and provenance.json for the default seed."""
    fingerprints: Dict[str, Any] = {}
    samples: Dict[str, Any] = {}
    for name, spec in workloads.SPECS.items():
        book = workloads.FingerprintBook(None)
        flags, _, _, samples[name] = untraced(
            name, spec, DEFAULT_SEED, seconds, workdir, book, setups=1
        )
        if not all(flags):
            raise SystemExit(f"perfbench: {name} failed its checks; nothing recorded")
        fingerprints[name] = book.seen
    sha = git_sha()
    workloads.FINGERPRINTS_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "git_sha": sha, "host": measure.host_provenance(),
         "workloads": fingerprints}, indent=2
    ) + "\n")
    provenance = {
        "git_sha": sha,
        "seed": DEFAULT_SEED,
        "host": measure.host_provenance(),
        "tail_rule": f"highest percentile with >= {measure.TAIL_MIN_BEYOND} samples beyond it, "
                     "else the maximum",
        "setup_repeats": SETUP_REPEATS,
        "run_seconds": seconds,
        "workloads": {
            name: {**spec.sizes(), "tail_at_run_seconds": samples[name]}
            for name, spec in workloads.SPECS.items()
        },
    }
    (Path(__file__).resolve().parent / "provenance.json").write_text(
        json.dumps(provenance, indent=2) + "\n"
    )


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        emit: Callable[[str], None] = print,
        spans_out: Optional[Path] = None) -> Dict[str, Any]:
    """Run one workload; emit the human lines and return the result."""
    specs = workloads.SMOKE_SPECS if smoke else workloads.SPECS
    spec = specs[name]
    host = measure.host_provenance()
    recorded = None if smoke else workloads.recorded_fingerprints(name, seed, host)
    book = workloads.FingerprintBook(recorded)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        if trace:
            flags, metrics, lines = traced(name, spec, seed, seconds, workdir, book, spans_out)
        else:
            flags, metrics, lines, _ = untraced(
                name, spec, seed, seconds, workdir, book,
                setups=1 if smoke else SETUP_REPEATS,
            )
    finally:
        remove_workdir(workdir)
    failed = flags.count(False)
    emit(f"workload {name} seed {seed} trace {int(trace)}: {json.dumps(spec.sizes())}")
    emit(f"host: {json.dumps(host)}")
    if seed == DEFAULT_SEED and recorded is None and not smoke:
        emit("recorded fingerprints not checked: recorded on another host configuration")
    for line in lines:
        emit(line)
    emit(f"error_rate = {failed}/{len(flags)} = {failed / len(flags):.4f}")
    return {
        "correct": failed == 0,
        "attempted": len(flags),
        "failed": failed,
        "metrics": metrics,
    }


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=non_negative, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, write every span to this JSONL file")
    parser.add_argument("--record", action="store_true",
                        help="rewrite fingerprints.json and provenance.json")
    args = parser.parse_args(argv)
    if args.record:
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT))
        try:
            record(workdir, args.seconds)
        finally:
            remove_workdir(workdir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spans_out=args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
