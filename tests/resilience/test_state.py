"""Run persistence through the store and the run directory.

A single optimizer run persists (and resumes) through the
content-addressed store: each layer's profile sums and each sigma
evaluation are stored as soon as they are computed, keyed on every
result-determining input.  A sweep grid additionally binds one run
directory to its plan fingerprint.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.profiler import ErrorProfiler
from repro.analysis.sigma_search import Scheme1Evaluator
from repro.cache import ResultCache
from repro.config import ProfileSettings, SearchSettings
from repro.errors import ResumeError
from repro.experiments import ExperimentConfig, SweepSpec
from repro.experiments.distributed import PLAN_FILE, publish_plan
from repro.experiments.rundir import RUN_DIR_SCHEMA
from repro.pipeline import PrecisionOptimizer

SETTINGS = ProfileSettings(num_images=8, num_delta_points=6, seed=99)
SEARCH = SearchSettings(num_images=64, tolerance=0.05, num_trials=1, seed=99)

TINY = ExperimentConfig(model="lenet", seed=1234)
SPEC = SweepSpec(models=("lenet",), accuracy_drops=(0.05,), objectives=("input",))


def _entries(store, namespace):
    return sorted((store / "objects" / namespace).glob("*/*.*"))


def _profile(network, images, store):
    cache = ResultCache(store)
    report = ErrorProfiler(
        network, images, settings=SETTINGS, cache=cache
    ).profile()
    return report, cache


def _optimizer(network, test, store):
    return PrecisionOptimizer(
        network,
        test,
        profile_settings=SETTINGS,
        search_settings=SEARCH,
        refine=False,
        cache=store,
    )


def _assert_same_profiles(a, b):
    assert set(a.profiles) == set(b.profiles)
    for name, profile in a.profiles.items():
        other = b.profiles[name]
        assert profile.lam == other.lam
        assert profile.theta == other.theta
        np.testing.assert_array_equal(profile.deltas, other.deltas)
        np.testing.assert_array_equal(profile.sigmas, other.sigmas)


@pytest.fixture(scope="module")
def cold(lenet, datasets, tmp_path_factory):
    """One cold profiled run into a fresh store: (report, cache, store)."""
    __, test = datasets
    store = tmp_path_factory.mktemp("store")
    report, cache = _profile(lenet, test.images, store)
    return report, cache, store


class TestManifest:
    """A sweep run directory binds to exactly one plan."""

    def test_bind_creates_layout(self, tmp_path):
        plan = publish_plan(tmp_path / "run", SPEC, TINY)
        payload = json.loads((tmp_path / "run" / PLAN_FILE).read_text())
        assert payload["schema"] == RUN_DIR_SCHEMA
        assert payload["fingerprint"] == plan.fingerprint

    def test_rebind_same_network_ok(self, tmp_path):
        first = publish_plan(tmp_path, SPEC, TINY)
        assert publish_plan(tmp_path, SPEC, TINY) == first

    def test_bind_rejects_other_network(self, tmp_path):
        publish_plan(tmp_path, SPEC, TINY)
        with pytest.raises(ResumeError, match="different sweep"):
            publish_plan(tmp_path, SweepSpec(models=("nin",)), TINY)

    def test_bind_rejects_version_mismatch(self, tmp_path):
        publish_plan(tmp_path, SPEC, TINY)
        path = tmp_path / PLAN_FILE
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ResumeError, match="schema"):
            publish_plan(tmp_path, SPEC, TINY)

    def test_corrupt_manifest_raises(self, tmp_path):
        publish_plan(tmp_path, SPEC, TINY)
        (tmp_path / PLAN_FILE).write_text("{not json")
        with pytest.raises(ResumeError):
            publish_plan(tmp_path, SPEC, TINY)


class TestLayerProfiles:
    """Per-layer profile sums live in the store's ``profile`` namespace."""

    def test_roundtrip(self, cold, lenet, datasets):
        report, __, store = cold
        __, test = datasets
        restored, cache = _profile(lenet, test.images, store)
        assert restored.cache_hits == len(lenet.analyzed_layer_names)
        assert cache.counters.writes == 0
        _assert_same_profiles(report, restored)

    def test_empty_state_loads_nothing(self, cold):
        report, cache, __ = cold
        assert report.cache_hits == 0
        assert cache.counters.hits == 0

    def test_multiple_layers(self, cold, lenet):
        __, __, store = cold
        assert len(_entries(store, "profile")) == len(
            lenet.analyzed_layer_names
        )

    def test_odd_layer_names_are_slugged(self, cold):
        # Store paths are key digests; layer names only reach metadata.
        __, __, store = cold
        for path in _entries(store, "profile"):
            assert len(path.stem) == 64
            int(path.stem, 16)


class TestSigmaResults:
    """Sigma searches replay from stored per-sigma evaluations."""

    @pytest.fixture(scope="class")
    def searched(self, lenet, datasets, tmp_path_factory):
        __, test = datasets
        store = tmp_path_factory.mktemp("sigma-store")
        optimizer = _optimizer(lenet, test, store)
        return optimizer.sigma_for_drop(0.05), store

    def test_roundtrip(self, searched, lenet, datasets):
        result, store = searched
        __, test = datasets
        again = _optimizer(lenet, test, store)
        replayed = again.sigma_for_drop(0.05)
        assert replayed.sigma == result.sigma
        assert replayed.evaluations == result.evaluations
        assert again.cache.counters.misses == 0

    def test_missing_returns_none(self, searched, lenet, datasets):
        # A stored evaluation answers only the search that measured it.
        result, store = searched
        __, test = datasets
        profiles = _optimizer(lenet, test, store).profile().profiles

        def evaluator(seed):
            return Scheme1Evaluator(
                lenet,
                test,
                profiles,
                num_trials=SEARCH.num_trials,
                seed=seed,
                cache=ResultCache(store),
            )

        same, other = evaluator(SEARCH.seed), evaluator(SEARCH.seed + 1)
        for sigma, accuracy in result.evaluations:
            assert same._persistent_get(sigma) == accuracy
            assert other._persistent_get(sigma) is None

    def test_distinct_drops_stored_separately(self, lenet, datasets, tmp_path):
        __, test = datasets
        optimizer = _optimizer(lenet, test, tmp_path)
        optimizer.optimize("input", accuracy_drop=0.05)
        assert len(_entries(tmp_path, "outcome")) == 1
        optimizer.optimize("input", accuracy_drop=0.1)
        assert len(_entries(tmp_path, "outcome")) == 2


class TestStaleResume:
    """Re-running into one store with a changed setting is never stale.

    The store keys every entry on every result-determining setting, so
    a second run that differs only in ``profile_points`` (or only in the
    search ``tolerance``) must equal a fresh run of its own settings —
    never reuse the first run's profiles or sigma.
    """

    def _outcome(self, network, test, store, profile, search):
        optimizer = PrecisionOptimizer(
            network,
            test,
            profile_settings=profile,
            search_settings=search,
            refine=False,
            cache=store,
        )
        outcome = optimizer.optimize("input", accuracy_drop=0.05)
        return optimizer.profile(), outcome

    def _assert_resume_equals_fresh(self, lenet, test, store, first, second):
        self._outcome(lenet, test, store, *first)
        resumed_profile, resumed = self._outcome(lenet, test, store, *second)
        fresh_profile, fresh = self._outcome(lenet, test, None, *second)
        _assert_same_profiles(fresh_profile, resumed_profile)
        assert resumed.result.sigma == fresh.result.sigma
        assert resumed.sigma_result.evaluations == fresh.sigma_result.evaluations
        assert resumed.bitwidths == fresh.bitwidths
        return fresh_profile, fresh

    def test_profile_points_change(self, lenet, datasets, tmp_path):
        __, test = datasets
        nine = replace(SETTINGS, num_delta_points=9)
        fresh_profile, __ = self._assert_resume_equals_fresh(
            lenet, test, tmp_path, (SETTINGS, SEARCH), (nine, SEARCH)
        )
        for profile in fresh_profile:
            assert len(profile.deltas) == 9

    def test_tolerance_change(self, lenet, datasets, tmp_path):
        __, test = datasets
        tight = replace(SEARCH, tolerance=0.005)
        __, loose = self._outcome(lenet, test, None, SETTINGS, SEARCH)
        __, fresh = self._assert_resume_equals_fresh(
            lenet, test, tmp_path, (SETTINGS, SEARCH), (SETTINGS, tight)
        )
        # the two tolerances really do search to different sigmas
        assert fresh.result.sigma != loose.result.sigma
