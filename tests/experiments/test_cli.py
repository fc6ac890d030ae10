"""Tests for the CLI (direct main() calls + one subprocess smoke test)."""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.experiments.cli import build_parser, main
from repro.service import ServiceConfig, run_service
from repro.service.checkpoint import latest_checkpoint, load_checkpoint, write_checkpoint


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario", "file_sharing"])
        assert args.n == 60 and args.seed == 0

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "nope"])


class TestCommands:
    def test_scenario(self, capsys):
        assert main(["scenario", "geo_latency", "--n", "25"]) == 0
        out = capsys.readouterr().out
        assert "total satisfaction" in out and "messages" in out

    def test_compare_with_exact(self, capsys):
        assert main(["compare", "heterogeneous", "--n", "20", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "LID" in out and "OPT" in out and "random" in out

    def test_serve_reports_churn_and_cache_reuse(self, capsys):
        assert main(["serve", "--n", "25", "--events", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("churn: ") for line in lines)
        repair = next(line for line in lines if line.startswith("repair: "))
        assert "reused" in repair and "recomputed" in repair

    @pytest.mark.parametrize("family", [None, "reg"])
    def test_serve_smoke_header_names_the_topology(self, family, capsys):
        argv = ["serve", "--smoke", "--n", "30", "--events", "10"]
        assert main(argv + (["--family", family] if family else [])) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("service-smoke: n=30 ")
        assert f" family={family or 'geo'} quota=3 " in header

    def test_churn_subcommand_is_gone(self, capsys):
        # churn runs are trace replays through `serve`
        with pytest.raises(SystemExit) as exc:
            main(["churn", "--n", "25", "--events", "6"])
        assert exc.value.code == 2
        assert "invalid choice: 'churn'" in capsys.readouterr().err


class TestBackendFlag:
    def test_compare_backend_default(self):
        args = build_parser().parse_args(["compare", "geo_latency"])
        assert args.backend == "reference"

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "geo_latency", "--backend", "gpu"])

    def test_compare_fast_backend(self, capsys):
        assert main(["compare", "geo_latency", "--n", "20",
                     "--backend", "fast"]) == 0
        assert "LIC[fast]" in capsys.readouterr().out

    def test_compare_backends_same_matching(self, capsys):
        """The LIC row must be numerically identical on both backends."""
        assert main(["compare", "geo_latency", "--n", "20"]) == 0
        ref_out = capsys.readouterr().out
        assert main(["compare", "geo_latency", "--n", "20",
                     "--backend", "fast"]) == 0
        fast_out = capsys.readouterr().out

        def lic_row(text, label):
            line = next(ln for ln in text.splitlines() if label in ln)
            return line.split("|")[1:]  # total/mean/min columns

        assert lic_row(ref_out, "LIC[reference]") == lic_row(fast_out, "LIC[fast]")


class TestServeUsageErrors:
    """A bad ``serve`` value is a usage error (exit 2), not a failed gate (1)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--checkpoint-every", "0"],
            ["--differential-every", "-1"],
            ["--n", "0"],
            ["--events", "-3"],
            ["--quota", "0"],
            ["--seed", "-1"],
            ["--resume"],
            ["--kill-after", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_value_exits_2_with_one_error_line(self, argv, capsys):
        assert main(["serve", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("holds", ["missing", "empty", "another-run", "version-3"])
    def test_resume_without_a_pinning_checkpoint_exits_2(self, holds, tmp_path, capsys):
        directory = tmp_path / "checkpoints"
        config = ServiceConfig(n=20, events=6)
        if holds == "empty":
            directory.mkdir()
        elif holds == "another-run":
            run_service(replace(config, seed=1), checkpoint_dir=directory)
        elif holds == "version-3":
            # this run's own checkpoints in the format before version 4
            run_service(config, checkpoint_dir=directory, kill_after=3)
            for path in directory.iterdir():
                payload = json.loads(path.read_text(encoding="utf-8"))
                payload["version"] = 3
                path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["serve", "--n", "20", "--events", "6", "--resume", "--checkpoint", str(directory)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_resume_from_a_corrupt_state_exits_2(self, tmp_path, capsys):
        # hash-valid checkpoints whose state restore must refuse: a
        # one-sided link, and a peer record with a null quota
        for corruption in ("one-sided-link", "null-quota"):
            directory = tmp_path / corruption
            run_service(ServiceConfig(n=20, events=6, checkpoint_every=2), directory, kill_after=3)
            payload = load_checkpoint(latest_checkpoint(directory))
            state = payload["state"]
            if corruption == "one-sided-link":
                p = min(state["adjacency"], key=int)
                state["adjacency"][p] = state["adjacency"][p][1:]
            else:
                state["peers"][0]["quota"] = None
            write_checkpoint(directory, payload["seq"], payload["fingerprint"], state)
            argv = ["serve", "--n", "20", "--events", "6", "--checkpoint-every", "2",
                    "--resume", "--checkpoint", str(directory)]
            assert main(argv) == 2, corruption
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert "corrupt snapshot" in err

    @pytest.mark.parametrize(
        "flag, extra",
        [("--checkpoint", []), ("--kill-after", ["--kill-after", "3"]), ("--resume", ["--resume"])],
        ids=["checkpoint", "kill-after", "resume"],
    )
    def test_smoke_rejects_the_flags_it_would_ignore(self, flag, extra, tmp_path, capsys):
        # the smoke gate kills and resumes its own run in a temporary
        # directory; it must refuse a flag that steers the run, not ignore it
        directory = tmp_path / "checkpoints"
        argv = ["serve", "--smoke", "--n", "30", "--events", "10",
                "--checkpoint", str(directory), *extra]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert flag in err
        assert not directory.exists()

    def test_warmstart_rounds_is_gone(self, capsys):
        # removed service knobs are unknown flags, not silently ignored
        for argv in (["--warmstart-rounds", "3"], ["--budget", "1"], ["--on-budget", "defer"]):
            with pytest.raises(SystemExit) as exc:
                main(["serve", *argv])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "scenario", "interest_social", "--n", "20"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "total satisfaction" in proc.stdout


class TestNewCommands:
    def test_discover(self, capsys):
        from repro.experiments.cli import main

        assert main(["discover", "--n", "20", "--rounds", "4"]) == 0
        out = capsys.readouterr().out
        assert "discovery" in out and "matching" in out


class TestGridCli:
    TOML = """\
name = "clitiny"
engines = ["lic-fast", "lid-fast"]
families = ["er"]
sizes = [12]
quotas = [2]
seeds = [0]
density = 0.4
"""

    @pytest.fixture
    def spec_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(self.TOML)
        return path

    def test_parser_requires_grid_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid"])

    def test_run_requires_a_spec_selection(self):
        with pytest.raises(SystemExit, match="select a sweep"):
            main(["grid", "run"])

    def test_run_status_report_roundtrip(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"

        assert main(["grid", "status", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        assert "0/2 cells complete" in capsys.readouterr().out

        assert main(["grid", "run", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "clitiny" in out and "ok" in out and "FAIL" not in out

        assert main(["grid", "status", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        assert "2/2 cells complete" in capsys.readouterr().out

        out_dir = tmp_path / "results"
        assert main(["grid", "report", "--spec", str(spec_file),
                     "--store", str(store), "--out", str(out_dir)]) == 0
        report_out = capsys.readouterr().out
        assert "report:" in report_out and "summary:" in report_out
        assert (store / "report.md").exists()
        assert (out_dir / "grid_clitiny_summary.csv").exists()

    def test_rerun_reuses_completed_cells(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["grid", "run", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["grid", "run", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        assert "0 executed, 2 reused" in capsys.readouterr().out

    def test_report_on_incomplete_store_fails_without_partial(
            self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["grid", "run", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        next(iter((store / "cells").glob("*.json"))).unlink()
        capsys.readouterr()
        assert main(["grid", "report", "--spec", str(spec_file),
                     "--store", str(store)]) == 1
        assert "incomplete" in capsys.readouterr().out
        assert main(["grid", "report", "--spec", str(spec_file),
                     "--store", str(store), "--partial"]) == 0

    def test_stale_store_exits_nonzero(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["grid", "run", "--spec", str(spec_file),
                     "--store", str(store)]) == 0
        edited = tmp_path / "edited.toml"
        edited.write_text(self.TOML.replace("sizes = [12]", "sizes = [13]"))
        capsys.readouterr()
        assert main(["grid", "run", "--spec", str(edited),
                     "--store", str(store)]) == 1
        assert "refusing to reuse" in capsys.readouterr().out


class TestRegistry:
    def test_list_command(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "f6" in out and "p4" in out

    def test_registry_lookup(self):
        from repro.experiments.registry import EXPERIMENTS, get_experiment

        assert get_experiment("T3").bench.endswith("bench_t3_equivalence.py")
        with pytest.raises(KeyError):
            get_experiment("zz")
        assert len({e.id for e in EXPERIMENTS}) == len(EXPERIMENTS)

    def test_registry_matches_bench_files(self):
        from pathlib import Path
        from repro.experiments.registry import EXPERIMENTS

        root = Path(__file__).parents[2]
        for e in EXPERIMENTS:
            assert (root / e.bench).exists(), e.bench
        # and the reverse: every bench file has a registry row
        registered = {e.bench for e in EXPERIMENTS}
        for path in sorted((root / "benchmarks").glob("bench_*.py")):
            assert path.relative_to(root).as_posix() in registered, path.name
