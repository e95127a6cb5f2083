"""The benchmark's own tests: statistics rules, tracing arithmetic,
output checks, seed handling, and a smoke-size run of every workload.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import measure, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
def test_tail_percentile_keeps_ten_samples_beyond():
    for count in range(1, 2000):
        p = measure.tail_percentile(count)
        if p is None:
            assert count <= 2 * measure.TAIL_MIN_BEYOND
            continue
        beyond = count - math.ceil(p * count / 100)
        assert beyond >= measure.TAIL_MIN_BEYOND, count
        assert p > 50
        if p < 99:  # the next percentile up would leave too few beyond it
            assert count - math.ceil((p + 1) * count / 100) < measure.TAIL_MIN_BEYOND, count


def test_tail_value_is_a_measured_sample_and_max_when_too_few():
    values = [float(v) for v in range(1, 101)]  # 100 samples
    value, p = measure.tail(values)
    assert p == 90 and value == 90.0
    assert sum(v > value for v in values) == 10
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, None)


# ----------------------------------------------------------------------
# Self-time arithmetic on synthetic spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_at_every_depth():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    rec = tracing.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with rec.span("root", tracing.ROOT_LAYER):
        with rec.span("a", "nn"):
            with rec.span("a1", "quant.runtime"):
                pass
        with rec.span("b", "nn"):
            pass
    assert tracing.self_times(rec.spans) == [3, 2, 1, 4]
    layers = tracing.layer_self_times(rec.spans)
    assert layers["nn"] == 6 and layers["quant.runtime"] == 1
    assert layers[tracing.ROOT_LAYER] == 3
    assert sum(layers.values()) == 10  # self times partition the root
    assert tracing.busy_seconds(rec.spans, "nn") == 0  # by name, not layer
    assert tracing.busy_seconds(rec.spans, "a") == 3
    assert tracing.covered_share(rec.spans, ("a", "b")) == pytest.approx(0.7)


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracing.Span("p", "pipeline", 0, -1, 0.0, 10.0),
        tracing.Span("c1", "nn", 0, 0, 1.0, 5.0),
        tracing.Span("c2", "nn", 0, 0, 3.0, 7.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_installed_wrappers_are_removed_on_exit():
    from repro.nn.graph import Network
    from repro.quant.runtime import network as qnet

    before = (Network.__dict__["forward"], qnet.integer_gemm)
    with tracing.installed(tracing.SpanRecorder()):
        assert Network.__dict__["forward"] is not before[0]
        assert qnet.integer_gemm is not before[1]
    assert (Network.__dict__["forward"], qnet.integer_gemm) == before


# ----------------------------------------------------------------------
# Output checks feed error_rate
# ----------------------------------------------------------------------
def test_corrupted_quantized_logits_are_counted_as_failures(monkeypatch):
    from repro.quant.runtime import QuantizedNetwork

    original = QuantizedNetwork.forward

    def corrupted(self, x):
        logits = original(self, x)
        return logits + 1e-9 if self.spec.backend == "fast" else logits

    monkeypatch.setattr(QuantizedNetwork, "forward", corrupted)
    result = run.run("quant-infer", 3, 0.05, trace=False, smoke=True, emit=lambda line: None)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]  # never dropped from the count


def test_raising_operation_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(
        workloads.ColdCell, "run",
        lambda self, index: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    monkeypatch.setattr(workloads.ColdCell, "quality", lambda self, outputs: {
        "eff_input_bits": 1.0, "traffic_bytes_per_image": 1.0, "accuracy_retained": 1.0,
    })
    book = workloads.FingerprintBook(None)
    workload = workloads.ColdCell(workloads.SMOKE_SPECS["cold-cell"], 3, ROOT, book)
    first, second = run.run_op(workload, 0), run.run_op(workload, 1)
    outputs = [first[0], second[0]]
    assert first[1] is None and second[1] is None  # no time for a failure
    assert all(isinstance(o, RuntimeError) for o in outputs)
    assert workload.verify(outputs) == [False, False]


def test_fingerprint_book_flags_disagreement_and_recorded_mismatch():
    fp = measure.allocation_fingerprint({"conv1": 5}, 0.25, {"conv1": 1.0})
    other = measure.allocation_fingerprint({"conv1": 5}, 0.25, {"conv1": 1.0 + 2**-52})
    assert fp != other  # one ulp of xi changes the digest
    book = workloads.FingerprintBook(None)
    assert book.check("k", fp) and book.check("k", fp)
    assert not book.check("k", other)
    assert not workloads.FingerprintBook({"k": other}).check("k", fp)


def test_recorded_fingerprints_apply_to_default_seed_on_recorded_host_only():
    recorded = json.loads(workloads.FINGERPRINTS_PATH.read_text())
    host = recorded["host"]
    assert workloads.recorded_fingerprints("cold-cell", workloads.DEFAULT_SEED, host) == (
        recorded["workloads"]["cold-cell"]
    )
    assert workloads.recorded_fingerprints("cold-cell", 1, host) is None
    other = dict(host, nproc=host["nproc"] + 1)
    assert workloads.recorded_fingerprints("cold-cell", workloads.DEFAULT_SEED, other) is None


# ----------------------------------------------------------------------
# The seed changes the generated inputs, not the workload definition
# ----------------------------------------------------------------------
def test_seed_changes_inputs_only():
    spec = workloads.SMOKE_SPECS["cold-cell"]
    book = workloads.FingerprintBook(None)
    first = workloads.ColdCell(spec, 1, ROOT, book)
    second = workloads.ColdCell(spec, 2, ROOT, book)
    first.setup()
    second.setup()
    assert not np.array_equal(first.test.images, second.test.images)
    assert not np.array_equal(first.test.labels, second.test.labels)
    assert np.array_equal(np.sort(first.test.images, axis=None), np.sort(second.test.images, axis=None))
    for mine, theirs in zip(first.network.layers, second.network.layers):
        for name in ("weight", "bias"):
            assert np.array_equal(getattr(mine, name, None), getattr(theirs, name, None))
    a = workloads.make_optimizer(spec, first.network, first.test)
    b = workloads.make_optimizer(spec, second.network, second.test)
    for attr in ("profile_settings", "search_settings", "scheme", "refine", "parallel", "batch_size"):
        assert getattr(a, attr) == getattr(b, attr), attr
    assert a.search_settings.seed == workloads.DEFAULT_SEED


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints
# ----------------------------------------------------------------------
def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()


# ----------------------------------------------------------------------
# Smoke-size runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_smoke_run(name, trace):
    result = run.run(name, 7, 0.2, trace=trace, smoke=True, emit=lambda line: None)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.per_layer_names() if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-cell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
