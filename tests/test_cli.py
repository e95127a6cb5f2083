"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import clear_context_cache


FAST = [
    "--model",
    "lenet",
    "--train-count",
    "128",
    "--test-count",
    "64",
    "--profile-images",
    "8",
    "--profile-points",
    "6",
    "--seed",
    "321",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model_choicelessly(self):
        # model is free-form; the zoo lookup raises at run time instead
        args = build_parser().parse_args(["profile", "--model", "nope"])
        assert args.model == "nope"

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.objective == "input"
        assert args.drop == 0.01
        assert not args.weights

    def test_scheme_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--scheme", "scheme9"])

    def test_resilience_flags_default_off(self):
        args = build_parser().parse_args(["optimize"])
        assert args.cache_dir == ""
        assert args.strict is False

    def test_resilience_flags_parse(self):
        # Resuming is reusing --cache-dir; there is no --resume flag.
        args = build_parser().parse_args(
            ["optimize", "--cache-dir", "/tmp/run", "--strict"]
        )
        assert args.cache_dir == "/tmp/run"
        assert args.strict is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "--resume", "/tmp/run"])
        args = build_parser().parse_args(["ablate", "--run-dir", "/tmp/r"])
        assert args.run_dir == "/tmp/r"

    def test_sweep_keep_going_flag(self):
        args = build_parser().parse_args(["sweep"])
        assert args.keep_going is False
        args = build_parser().parse_args(["sweep", "--keep-going"])
        assert args.keep_going is True

    def test_ablate_defaults(self):
        args = build_parser().parse_args(["ablate"])
        assert args.drop == 0.05
        assert args.objective == "input"
        assert args.components == ""
        assert args.scenarios == ""
        assert args.chaos_cell == []
        assert args.smoke is False

    def test_ablate_chaos_cell_repeatable(self):
        args = build_parser().parse_args(
            [
                "ablate",
                "--chaos-cell",
                "component/baseline/lenet",
                "--chaos-cell",
                "component/xi:equal/lenet",
            ]
        )
        assert len(args.chaos_cell) == 2


class TestCommands:
    def test_zoo(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out and "resnet152" in out

    def test_profile(self, capsys):
        assert main(["profile"] + FAST) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "conv1" in out

    def test_optimize(self, capsys):
        code = main(["optimize", "--drop", "0.05"] + FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "constraint met" in out

    def test_optimize_with_resume_populates_state(self, capsys, tmp_path):
        store = tmp_path / "store"
        args = ["optimize", "--drop", "0.05", "--cache-dir", str(store)] + FAST
        assert main(args) == 0
        first = capsys.readouterr().out
        objects = store / "objects"
        assert list((objects / "profile").glob("*/*.npb"))
        assert list((objects / "sigma_eval").glob("*/*.json"))
        assert list((objects / "outcome").glob("*/*.json"))
        # a second run on the same store (fresh process state) resumes
        # from it and agrees; only the store's own hit/miss line differs
        clear_context_cache()
        assert main(args) == 0
        second = capsys.readouterr().out

        def results(out):
            return [
                line for line in out.splitlines()
                if not line.startswith(f"cache {store}")
            ]

        assert results(first) == results(second)
        assert " 0 misses" in second

    def test_ablate_smoke_with_chaos_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "ablate.json"
        code = main(
            [
                "ablate",
                "--model",
                "lenet",
                "--smoke",
                "--components",
                "xi",
                "--chaos-cell",
                "component/xi:equal/lenet",
                "--output",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "component importance" in out
        assert "1 failed" in out
        assert "SimulatedCrash" in out
        assert out_path.exists()
        import json

        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        statuses = {r["cell_id"]: r["status"] for r in payload["rows"]}
        assert statuses == {
            "component/baseline/lenet": "ok",
            "component/xi:equal/lenet": "failed",
        }

    def test_sweep_keep_going_completes(self, capsys):
        # keep-going on a healthy grid is a no-op: same cells, no rows
        # marked failed.
        code = main(
            [
                "sweep",
                "--keep-going",
                "--drops",
                "0.05",
                "--objectives",
                "input",
            ]
            + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 cells" in out
        assert "FAILED" not in out

    def test_fig2(self, capsys):
        assert main(["fig2"] + FAST) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out

    def test_fig3(self, capsys):
        assert main(["fig3"] + FAST) == 0
        out = capsys.readouterr().out
        assert "equal_scheme" in out


class TestSuiteCommand:
    def test_suite_with_subset_and_export(self, capsys, tmp_path):
        code = main(
            ["suite", "--only", "fig1", "--output", str(tmp_path)] + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "suite finished" in out
        assert (tmp_path / "fig1.json").exists()


@pytest.mark.slow
class TestSlowCommands:
    def test_table2(self, capsys):
        assert main(["table2", "--drop", "0.05"] + FAST) == 0
        out = capsys.readouterr().out
        assert "saving" in out

    def test_cost(self, capsys):
        assert main(["cost", "--drop", "0.05"] + FAST) == 0
        out = capsys.readouterr().out
        assert "ratio" in out


class TestRunQuantized:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run-quantized"])
        assert args.allocation == ""
        assert args.weight_bits == 16
        assert args.backend == "fast"
        assert args.no_pack is False
        assert args.drop == 0.01

    def test_backend_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-quantized", "--backend", "cuda"])

    def test_executes_saved_allocation(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        assert (
            main(["optimize", "--drop", "0.05", "--output", str(path)] + FAST)
            == 0
        )
        capsys.readouterr()
        code = main(
            ["run-quantized", "--allocation", str(path), "--drop", "0.05"]
            + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy budget met" in out
        assert "measured" in out

    def test_reference_backend_unpacked_matches_budget(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        main(["optimize", "--drop", "0.05", "--output", str(path)] + FAST)
        capsys.readouterr()
        code = main(
            [
                "run-quantized",
                "--allocation",
                str(path),
                "--drop",
                "0.05",
                "--backend",
                "reference",
                "--no-pack",
            ]
            + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy budget met" in out
