"""Tests for the CLI (direct main() calls + one subprocess smoke test)."""

import subprocess
import sys

import pytest

from repro.experiments.cli import build_parser, main


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

    def test_churn(self, capsys):
        assert main(["churn", "--n", "25", "--events", "6"]) == 0
        out = capsys.readouterr().out
        assert "churn events" in out and "satisfaction" in out


class TestBackendFlag:
    def test_compare_backend_default(self):
        args = build_parser().parse_args(["compare", "geo_latency"])
        assert args.backend == "reference"

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "geo_latency", "--backend", "gpu"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--backend", "gpu"])

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

    def test_churn_fast_backend_reports_cache(self, capsys):
        assert main(["churn", "--n", "25", "--events", "6",
                     "--backend", "fast"]) == 0
        out = capsys.readouterr().out
        assert "weight cache" in out and "% reuse" in out

    def test_churn_reference_backend_no_cache_line(self, capsys):
        assert main(["churn", "--n", "25", "--events", "6"]) == 0
        assert "weight cache" not in capsys.readouterr().out


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
        assert "t1" in out and "f6" in out and "p2" in out

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
