"""Campaign run directory: fingerprint binding, atomic rows, bad rows.

A campaign persists through :mod:`repro.experiments.rundir` — one plan
file bound to the campaign fingerprint plus one
:class:`~repro.robustness.CampaignRow` per executed cell.
"""

import json

import pytest

from repro.errors import ResumeError
from repro.experiments.rundir import (
    CELLS_DIR,
    RUN_DIR_SCHEMA,
    bind_plan,
    load_row,
    publish_row,
    slugify,
)
from repro.robustness import CampaignRow, FailureRecord

PLAN = "ablate-plan.json"


def _bind(directory, fingerprint):
    return bind_plan(
        directory, PLAN, {"fingerprint": fingerprint}, what="campaign"
    )


def _ok_row(cell_id="component/baseline/lenet"):
    return CampaignRow(
        cell_id=cell_id,
        kind="component",
        group="",
        variant="baseline",
        model="lenet",
        accuracy_drop=0.05,
        objective="input",
        elapsed_seconds=1.25,
        sigma=0.4,
        effective_input_bits=5.5,
        effective_mac_bits=6.0,
        baseline_accuracy=0.9,
        validated_accuracy=0.88,
        meets_constraint=True,
        degraded=False,
        bitwidths={"conv1": 6, "fc": 5},
        cache_counters={"hits": 2, "misses": 1},
    )


def _failed_row(cell_id="component/xi:equal/lenet"):
    return CampaignRow(
        cell_id=cell_id,
        kind="component",
        group="xi",
        variant="xi:equal",
        model="lenet",
        accuracy_drop=0.05,
        objective="input",
        elapsed_seconds=0.3,
        failure=FailureRecord(
            error_class="SimulatedCrash",
            message="chaos",
            stage="profiling",
            traceback_digest="abc123def456",
        ),
    )


def _save(directory, row):
    publish_row(directory, slugify(row.cell_id), row.as_dict())


def _load(directory, cell_id):
    payload = load_row(directory, slugify(cell_id))
    return None if payload is None else CampaignRow.from_dict(payload)


class TestCampaignState:
    def test_bind_creates_versioned_manifest(self, tmp_path):
        plan = _bind(tmp_path / "campaign", "fp-1")
        assert plan["schema"] == RUN_DIR_SCHEMA
        assert plan["fingerprint"] == "fp-1"
        assert (tmp_path / "campaign" / PLAN).exists()

    def test_rebind_same_fingerprint_ok(self, tmp_path):
        _bind(tmp_path, "fp-1")
        assert _bind(tmp_path, "fp-1")["fingerprint"] == "fp-1"

    def test_rebind_other_fingerprint_rejected(self, tmp_path):
        _bind(tmp_path, "fp-1")
        with pytest.raises(ResumeError, match="different campaign"):
            _bind(tmp_path, "fp-2")

    def test_version_mismatch_rejected(self, tmp_path):
        _bind(tmp_path, "fp-1")
        path = tmp_path / PLAN
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ResumeError, match="schema"):
            _bind(tmp_path, "fp-1")

    def test_unreadable_manifest_rejected(self, tmp_path):
        _bind(tmp_path, "fp-1")
        (tmp_path / PLAN).write_text("{not json")
        with pytest.raises(ResumeError, match="not valid JSON"):
            _bind(tmp_path, "fp-1")


class TestRows:
    def test_ok_row_round_trips(self, tmp_path):
        row = _ok_row()
        _save(tmp_path, row)
        assert _load(tmp_path, row.cell_id) == row

    def test_failed_row_round_trips_with_failure_record(self, tmp_path):
        row = _failed_row()
        _save(tmp_path, row)
        loaded = _load(tmp_path, row.cell_id)
        assert loaded.status == "failed"
        assert loaded.failure == row.failure
        assert loaded == row

    def test_saving_again_overwrites_the_row(self, tmp_path):
        _save(tmp_path, _failed_row("component/baseline/lenet"))
        _save(tmp_path, _ok_row("component/baseline/lenet"))
        assert len(list((tmp_path / CELLS_DIR).glob("*.json"))) == 1
        assert _load(tmp_path, "component/baseline/lenet").status == "ok"

    def test_corrupt_row_rejected(self, tmp_path):
        # A torn row is "not published": its cell simply runs again.
        _save(tmp_path, _ok_row())
        path = next((tmp_path / CELLS_DIR).glob("*.json"))
        path.write_text("{broken")
        assert _load(tmp_path, _ok_row().cell_id) is None

    def test_row_version_mismatch_rejected(self, tmp_path):
        # Valid JSON that is not a row (e.g. another layout's file).
        _save(tmp_path, _ok_row())
        path = next((tmp_path / CELLS_DIR).glob("*.json"))
        payload = json.loads(path.read_text())
        del payload["model"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ResumeError, match="malformed"):
            _load(tmp_path, _ok_row().cell_id)

    def test_no_cells_dir_means_no_rows(self, tmp_path):
        assert _load(tmp_path / "fresh", "component/baseline/lenet") is None

    def test_slugged_filenames_are_safe(self, tmp_path):
        _save(tmp_path, _ok_row("component/scheme:scheme2/lenet"))
        files = list((tmp_path / CELLS_DIR).glob("*.json"))
        assert len(files) == 1
        assert "/" not in files[0].name
        assert ":" not in files[0].name
        assert not list((tmp_path / CELLS_DIR).glob(".tmp-*"))
