"""End-to-end chaos tests: every degradation path, proven on a real model.

These are the acceptance tests for the resilience layer: a simulated
crash mid-profiling must be resumable through the store without
re-profiling completed layers, NaN activations must trip the
guardrails, transient evaluator faults must be retried, and forced
SLSQP failure must degrade to an equal-xi allocation tagged
``degraded=True`` instead of raising.
"""

import pytest

from repro.analysis.profiler import ErrorProfiler
from repro.analysis.sigma_search import Scheme1Evaluator, find_sigma
from repro.config import ProfileSettings, SearchSettings
from repro.errors import (
    DegradedResultWarning,
    NumericalGuardError,
    ReproError,
    RetryExhaustedError,
    TransientError,
)
from repro.pipeline import PrecisionOptimizer, describe_outcome
from repro.cache import ResultCache
from repro.resilience import (
    ChaosNetwork,
    FaultSchedule,
    SimulatedCrash,
    broken_solver,
    crash_after_layers,
    flaky,
)

SETTINGS = ProfileSettings(num_images=8, num_delta_points=6, seed=99)
SEARCH = SearchSettings(num_images=64, tolerance=0.05, num_trials=1, seed=99)


def profile_entries(store):
    """The per-layer profile entries in a store directory."""
    return list((store / "objects" / "profile").glob("*/*.npb"))


class TestFaultSchedule:
    def test_explicit_indices_fire_exactly(self):
        sched = FaultSchedule(at={1, 3})
        assert [sched.should_fault() for __ in range(5)] == [
            False, True, False, True, False,
        ]
        assert sched.fired == 2

    def test_max_faults_caps_injection(self):
        sched = FaultSchedule(rate=1.0, max_faults=2)
        fired = sum(sched.should_fault() for __ in range(10))
        assert fired == 2

    def test_seeded_rate_is_deterministic(self):
        a = FaultSchedule(rate=0.5, seed=3)
        b = FaultSchedule(rate=0.5, seed=3)
        assert [a.should_fault() for __ in range(20)] == [
            b.should_fault() for __ in range(20)
        ]

    def test_max_faults_exact_when_at_and_rate_interleave(self):
        # rate=1.0 fires on events 0,1,2; the cap must then silence the
        # later explicit indices 5 and 9 — exactly max_faults total.
        sched = FaultSchedule(at={0, 5, 9}, rate=1.0, max_faults=3)
        hits = [sched.should_fault() for __ in range(20)]
        assert hits == [True, True, True] + [False] * 17
        assert sched.fired == 3

    def test_coinciding_at_and_rate_count_as_one_fault(self):
        sched = FaultSchedule(at={0}, rate=1.0, max_faults=2)
        assert [sched.should_fault() for __ in range(5)] == [
            True, True, False, False, False,
        ]
        assert sched.fired == 2

    def test_at_hits_do_not_shift_the_rate_stream(self):
        plain = FaultSchedule(rate=0.3, seed=7)
        mixed = FaultSchedule(at={2}, rate=0.3, seed=7)
        base = {i for i in range(50) if plain.should_fault()}
        combined = {i for i in range(50) if mixed.should_fault()}
        assert combined == base | {2}

    def test_consumption_from_second_process_raises(self, monkeypatch):
        import repro.resilience.chaos as chaos_mod

        sched = FaultSchedule(at={1})
        assert sched.should_fault() is False  # binds the consumer pid
        elsewhere = chaos_mod.os.getpid() + 1
        monkeypatch.setattr(chaos_mod.os, "getpid", lambda: elsewhere)
        with pytest.raises(ReproError, match="single-consumer"):
            sched.should_fault()


class TestNaNGuardrail:
    def test_nan_activations_trip_profiler_guard(self, lenet, datasets):
        __, test = datasets
        chaos = ChaosNetwork(lenet, nan_schedule=FaultSchedule.once(2))
        profiler = ErrorProfiler(chaos, test.images, settings=SETTINGS)
        with pytest.raises(NumericalGuardError) as excinfo:
            profiler.profile()
        diags = excinfo.value.diagnostics
        assert diags and diags[0].code == "non_finite"
        assert diags[0].layer in lenet.analyzed_layer_names

    def test_nan_accuracy_trips_sigma_search_guard(self):
        from repro.errors import SearchError

        def poisoned_accuracy(sigma):
            return float("nan")

        with pytest.raises(SearchError, match="numerically broken"):
            find_sigma(poisoned_accuracy, 0.8, 0.05, SEARCH)


class TestTransientRetry:
    def test_flaky_evaluator_is_retried(self):
        def accuracy(sigma):
            return 0.9 if sigma <= 0.5 else 0.4

        flaky_fn = flaky(accuracy, FaultSchedule(at={0, 3}))
        result = find_sigma(flaky_fn, 0.9, 0.05, SEARCH)
        assert result.sigma > 0

    def test_persistent_faults_exhaust_retries(self):
        def accuracy(sigma):
            return 0.9

        always_bad = flaky(accuracy, FaultSchedule(rate=1.0))
        with pytest.raises(RetryExhaustedError):
            find_sigma(always_bad, 0.9, 0.05, SEARCH)

    def test_transient_network_fault_retried_end_to_end(
        self, lenet, datasets, lenet_profiles
    ):
        __, test = datasets
        chaos = ChaosNetwork(
            lenet, transient_schedule=FaultSchedule.once(0)
        )
        evaluator = Scheme1Evaluator(
            chaos,
            test.subset(32),
            lenet_profiles.profiles,
            batch_size=32,
            num_trials=1,
            seed=5,
        )

        def accuracy(sigma):
            try:
                return evaluator.accuracy(sigma)
            except TransientError:
                raise  # let find_sigma's retry loop handle it

        result = find_sigma(accuracy, 0.8, 0.10, SEARCH)
        assert result.sigma > 0
        assert chaos.transient_schedule.fired == 1


class TestCrashAndResume:
    """Acceptance: kill mid-profiling, resume through the store.

    The profiler stores each layer's campaign sums the moment that
    layer finishes, so a crash after k layers leaves exactly k store
    entries and a re-run against the same store profiles only the rest.
    """

    def _profile(self, network, images, store):
        return ErrorProfiler(
            network, images, settings=SETTINGS, cache=ResultCache(store)
        ).profile()

    def _crash(self, lenet, images, store, completed):
        chaos = ChaosNetwork(
            lenet,
            crash_schedule=crash_after_layers(
                completed, SETTINGS.num_delta_points, SETTINGS.num_repeats
            ),
        )
        with pytest.raises(SimulatedCrash):
            self._profile(chaos, images, store)

    def test_crash_then_resume_skips_completed_layers(
        self, lenet, datasets, tmp_path
    ):
        __, test = datasets
        layers = lenet.analyzed_layer_names
        assert len(layers) >= 3, "test needs a multi-layer network"
        completed = 2
        self._crash(lenet, test.images, tmp_path, completed)

        # exactly the first `completed` layers were stored
        assert len(profile_entries(tmp_path)) == completed

        # resume on a clean network that only counts forward events
        counter = FaultSchedule()
        report = self._profile(
            ChaosNetwork(lenet, crash_schedule=counter), test.images, tmp_path
        )
        assert set(report.profiles) == set(layers)
        assert report.cache_hits == completed
        # one input-scale pass; the reference activations restore from
        # the store; only the unfinished layers' trials replay
        remaining = len(layers) - completed
        assert counter.calls == 1 + remaining * (
            SETTINGS.num_delta_points * SETTINGS.num_repeats
        )
        assert len(profile_entries(tmp_path)) == len(layers)

    def test_resumed_profiles_match_uninterrupted_run(
        self, lenet, datasets, tmp_path
    ):
        __, test = datasets
        clean = ErrorProfiler(lenet, test.images, settings=SETTINGS).profile()
        self._crash(lenet, test.images, tmp_path, 1)
        resumed = self._profile(lenet, test.images, tmp_path)
        assert resumed.cache_hits == 1
        for name, profile in clean.profiles.items():
            again = resumed.profiles[name]
            # bit-identical, not approximately equal
            assert again.lam == profile.lam
            assert again.theta == profile.theta
            assert again.r_squared == profile.r_squared
            assert again.sigmas.tobytes() == profile.sigmas.tobytes()

    def test_optimizer_resumes_profile_and_sigma(
        self, lenet, datasets, tmp_path
    ):
        __, test = datasets
        chaos = ChaosNetwork(
            lenet,
            crash_schedule=crash_after_layers(
                2, SETTINGS.num_delta_points, SETTINGS.num_repeats
            ),
        )
        crashed = PrecisionOptimizer(
            chaos,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            cache=tmp_path,
        )
        with pytest.raises(SimulatedCrash):
            crashed.profile()
        assert len(profile_entries(tmp_path)) == 2

        resumed = PrecisionOptimizer(
            lenet,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            cache=tmp_path,
        )
        outcome = resumed.optimize("input", accuracy_drop=0.05)
        assert resumed.profile().cache_hits == 2
        assert outcome.sigma_result.sigma > 0
        assert set(outcome.bitwidths) == set(lenet.analyzed_layer_names)

        # the finished sigma search replays from the stored evaluations:
        # a third optimizer computes nothing and matches exactly
        third = PrecisionOptimizer(
            lenet,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            cache=tmp_path,
        )
        stored = third.sigma_for_drop(0.05)
        assert third.cache.counters.misses == 0
        assert stored.sigma == outcome.sigma_result.sigma
        assert stored.evaluations == outcome.sigma_result.evaluations


class TestSolverDegradation:
    """Acceptance: forced SLSQP failure returns degraded equal-xi."""

    def test_forced_failure_degrades_to_equal_xi(self, lenet, datasets):
        __, test = datasets
        opt = PrecisionOptimizer(
            lenet,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            xi_solver=broken_solver(fail_times=None),
        )
        with pytest.warns(DegradedResultWarning):
            outcome = opt.optimize(
                "input", accuracy_drop=0.05, validate=False
            )
        assert outcome.degraded is True
        shares = set(round(x, 9) for x in outcome.result.xi.values())
        assert len(shares) == 1  # equal-xi fallback
        assert "DEGRADED" in describe_outcome(outcome)

    def test_strict_mode_raises_instead_of_degrading(self, lenet, datasets):
        __, test = datasets
        opt = PrecisionOptimizer(
            lenet,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            strict=True,
            xi_solver=broken_solver(fail_times=None),
        )
        with pytest.raises(RetryExhaustedError):
            opt.optimize("input", accuracy_drop=0.05, validate=False)

    def test_multi_start_recovery_is_not_degraded(self, lenet, datasets):
        __, test = datasets
        opt = PrecisionOptimizer(
            lenet,
            test,
            profile_settings=SETTINGS,
            search_settings=SEARCH,
            refine=False,
            xi_solver=broken_solver(fail_times=1),
        )
        outcome = opt.optimize("input", accuracy_drop=0.05, validate=False)
        assert outcome.degraded is False
        assert outcome.result.fallback.attempts == 2
