"""End-to-end determinism of the injection engine.

The acceptance bar for every execution strategy — serial, thread pool,
process pool, any ``trial_batch`` — is bitwise identity with the legacy
one-trial-at-a-time profiler loop (``use_engine=False``), which shares
the engine's coordinate-keyed RNG streams and is kept as the
differential oracle.
"""

import numpy as np
import pytest

import repro.engine.campaign as campaign_module
from repro.analysis import ErrorProfiler
from repro.config import ParallelSettings, ProfileSettings
from repro.engine import InjectionEngine
from repro.errors import ProfilingError, RetryExhaustedError, TransientError
from repro.nn import NetworkBuilder
from repro.resilience import SimulatedCrash

TEST_SEED = 1234

SETTINGS = ProfileSettings(
    num_images=12, num_delta_points=4, num_repeats=2, seed=TEST_SEED
)
# batch_size=4 gives three profiling batches, covering the multi-batch
# reduction order and the stacked-batch GEMM shapes in one go.
BATCH_SIZE = 4


def profile(lenet, images, *, use_engine=True, parallel=None, grids=None):
    profiler = ErrorProfiler(
        lenet,
        images,
        SETTINGS,
        batch_size=BATCH_SIZE,
        parallel=parallel,
        use_engine=use_engine,
    )
    if grids is not None:
        return profiler.profile_with_grids(grids)
    return profiler.profile()


def assert_reports_bitwise_equal(a, b):
    assert set(a.profiles) == set(b.profiles)
    for name in a.profiles:
        pa, pb = a[name], b[name]
        assert pa.lam == pb.lam
        assert pa.theta == pb.theta
        assert np.array_equal(pa.sigmas, pb.sigmas)
        assert np.array_equal(pa.deltas, pb.deltas)


@pytest.fixture(scope="module")
def profiling_images(datasets):
    __, test = datasets
    return test.images[: SETTINGS.num_images]


@pytest.fixture(scope="module")
def legacy_report(lenet, profiling_images):
    return profile(lenet, profiling_images, use_engine=False)


@pytest.fixture(scope="module")
def engine_report(lenet, profiling_images):
    return profile(lenet, profiling_images)


class TestEngineMatchesLegacy:
    def test_serial_engine_bitwise_equal(self, legacy_report, engine_report):
        assert_reports_bitwise_equal(engine_report, legacy_report)

    @pytest.mark.parametrize("trial_batch", [1, 3, 8])
    def test_trial_batch_invariance(
        self, lenet, profiling_images, engine_report, trial_batch
    ):
        report = profile(
            lenet,
            profiling_images,
            parallel=ParallelSettings(trial_batch=trial_batch),
        )
        assert_reports_bitwise_equal(report, engine_report)

    def test_thread_pool_bitwise_equal(
        self, lenet, profiling_images, legacy_report
    ):
        report = profile(
            lenet,
            profiling_images,
            parallel=ParallelSettings(jobs=2, backend="thread"),
        )
        assert report.jobs == 2
        assert_reports_bitwise_equal(report, legacy_report)

    def test_process_pool_bitwise_equal(
        self, lenet, profiling_images, legacy_report
    ):
        report = profile(
            lenet,
            profiling_images,
            parallel=ParallelSettings(jobs=2, backend="process"),
        )
        assert_reports_bitwise_equal(report, legacy_report)

    def test_fast_kernels_off_bitwise_equal(
        self, lenet, profiling_images, legacy_report
    ):
        report = profile(
            lenet,
            profiling_images,
            parallel=ParallelSettings(fast_kernels=False),
        )
        assert_reports_bitwise_equal(report, legacy_report)


class TestWorkerPoolEvents:
    def test_pooled_run_streams_layer_lifecycle(
        self, lenet, profiling_images, legacy_report, tmp_path
    ):
        from repro.config import TelemetrySettings
        from repro.telemetry import Telemetry
        from repro.telemetry.events import read_bus_events, validate_bus_path

        telemetry = Telemetry(
            TelemetrySettings(enabled=True, events_dir=str(tmp_path))
        )
        profiler = ErrorProfiler(
            lenet,
            profiling_images,
            SETTINGS,
            batch_size=BATCH_SIZE,
            parallel=ParallelSettings(jobs=2, backend="thread"),
            telemetry=telemetry,
        )
        report = profiler.profile()
        telemetry.close()
        assert_reports_bitwise_equal(report, legacy_report)

        path = tmp_path / "events.jsonl"
        assert validate_bus_path(path) == []
        events = read_bus_events(path)
        layer_events = [
            e for e in events
            if e["type"] == "stage"
            and e["name"].startswith("engine.layer/")
        ]
        queued = [e for e in layer_events if e["event"] == "queued"]
        done = [e for e in layer_events if e["event"] == "done"]
        layers = {e["name"] for e in queued}
        assert len(queued) == len(done) == len(layers) > 0
        assert all(e["attrs"]["retries"] == 0 for e in done)
        phases = {e["name"] for e in events if e["type"] == "stage"}
        assert "engine.replay" in phases


class TestOrderingInvariance:
    """Reordering the layer traversal must not move a single bit.

    Each trial's RNG stream is keyed by its (layer_position, batch,
    delta, repeat) coordinate, never by visit order, so a reversed
    layer dict is the same campaign.
    """

    @pytest.fixture(scope="class")
    def grids(self, lenet):
        return {
            name: np.geomspace(1e-3, 0.2, SETTINGS.num_delta_points)
            for name in lenet.analyzed_layer_names
        }

    @pytest.mark.parametrize("use_engine", [True, False])
    def test_reversed_layer_order(
        self, lenet, profiling_images, grids, use_engine
    ):
        forward = profile(
            lenet, profiling_images, use_engine=use_engine, grids=grids
        )
        reversed_grids = dict(reversed(list(grids.items())))
        backward = profile(
            lenet, profiling_images, use_engine=use_engine, grids=reversed_grids
        )
        assert_reports_bitwise_equal(forward, backward)


class TestLayerPublication:
    """``on_layer`` sees each finished layer's sums, serial or pooled."""

    @pytest.mark.parametrize(
        "parallel",
        [
            ParallelSettings(jobs=1),
            ParallelSettings(jobs=2, backend="thread"),
            ParallelSettings(jobs=2, backend="process"),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_each_layer_published_in_order(
        self, lenet, profiling_images, parallel
    ):
        names = lenet.analyzed_layer_names
        grids = {
            name: np.geomspace(1e-3, 0.2, SETTINGS.num_delta_points)
            for name in names
        }
        published = []
        result = InjectionEngine(lenet, parallel).run(
            profiling_images,
            grids,
            num_repeats=SETTINGS.num_repeats,
            seed=SETTINGS.seed,
            batch_size=BATCH_SIZE,
            on_layer=lambda name, sums, counts: published.append(
                (name, sums, counts)
            ),
        )
        assert [name for name, __, __ in published] == names
        for name, sums, counts in published:
            assert sums.tobytes() == result.sq_sums[name].tobytes()
            assert counts.tobytes() == result.counts[name].tobytes()

    def test_crash_after_published_layers_keeps_them(self, lenet, profiling_images):
        names = lenet.analyzed_layer_names
        grids = {
            name: np.geomspace(1e-3, 0.2, SETTINGS.num_delta_points)
            for name in names
        }
        published = []

        def sink(name, sums, counts):
            published.append(name)
            if len(published) == 2:
                raise SimulatedCrash("killed after two layers")

        with pytest.raises(SimulatedCrash):
            InjectionEngine(lenet, ParallelSettings(jobs=2)).run(
                profiling_images,
                grids,
                num_repeats=SETTINGS.num_repeats,
                seed=SETTINGS.seed,
                batch_size=BATCH_SIZE,
                on_layer=sink,
            )
        assert published == names[:2]


def tiny_network(seed=0):
    b = NetworkBuilder("tiny", (2, 6, 6), seed=seed)
    b.conv("c1", 3, 3)
    b.conv("c2", 4, 3)
    b.global_pool("gap")
    b.dense("fc", 5)
    return b.build()


class TestFailurePaths:
    """Worker failures must surface through the resilience layer."""

    def test_worker_crash_names_layer(self):
        net = tiny_network()
        calls = {"count": 0}
        original = net["gap"].forward

        def flaky(arrays):
            # Let the reference pass through, then crash every replay.
            calls["count"] += 1
            if calls["count"] > 1:
                raise RuntimeError("boom")
            return original(arrays)

        net["gap"].forward = flaky
        engine = InjectionEngine(
            net, ParallelSettings(jobs=2, backend="thread")
        )
        rng = np.random.default_rng(TEST_SEED)
        images = rng.standard_normal((4, 2, 6, 6))
        grids = {"c1": np.array([0.01, 0.1])}
        with pytest.raises(ProfilingError, match="'c1' crashed"):
            engine.run(images, grids, num_repeats=1, seed=TEST_SEED)

    def test_transient_errors_exhaust_retries(self, monkeypatch):
        def always_transient(network, caches, **task):
            raise TransientError("worker evicted")

        monkeypatch.setattr(
            campaign_module, "run_layer_campaign", always_transient
        )
        net = tiny_network()
        engine = InjectionEngine(
            net,
            ParallelSettings(jobs=2, backend="thread", transient_retries=2),
        )
        rng = np.random.default_rng(TEST_SEED)
        images = rng.standard_normal((4, 2, 6, 6))
        grids = {"c1": np.array([0.01, 0.1])}
        with pytest.raises(RetryExhaustedError) as excinfo:
            engine.run(images, grids, num_repeats=1, seed=TEST_SEED)
        # initial attempt + transient_retries resubmissions, all logged
        assert len(excinfo.value.attempts) == 3

    def test_serial_engine_error_passes_through(self):
        net = tiny_network()
        calls = {"count": 0}
        original = net["gap"].forward

        def flaky(arrays):
            calls["count"] += 1
            if calls["count"] > 1:
                raise RuntimeError("boom")
            return original(arrays)

        net["gap"].forward = flaky
        engine = InjectionEngine(net, ParallelSettings())
        rng = np.random.default_rng(TEST_SEED)
        images = rng.standard_normal((4, 2, 6, 6))
        with pytest.raises(RuntimeError):
            engine.run(
                images,
                {"c1": np.array([0.01])},
                num_repeats=1,
                seed=TEST_SEED,
            )
