"""Tests of the end-to-end benchmark at ``--quick`` sizes.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parents[1]
for _path in (str(REPO / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import diff  # noqa: E402
import run  # noqa: E402
import trace as e2e_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
QUICK_S = 0.2


def _cli(*args: str, cwd: Path = REPO, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )


@pytest.fixture(scope="module")
def traced():
    """One traced quick run per workload."""
    return {name: run.run_workload(name, 0, QUICK_S, trace=True, quick=True) for name in NAMES}


def test_spec_names_the_workloads_this_benchmark_runs():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert NAMES == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + NAMES
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_cli_emits_every_listed_metric_with_its_unit(name, trace):
    proc = _cli("--workload", name, "--seed", "0", "--seconds", str(QUICK_S),
                "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        assert math.isfinite(got["value"])
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_dropped_edge_is_counted_and_exits_nonzero(monkeypatch, capsys):
    from repro.core import fast_lid

    original = fast_lid.lid_matching_fast

    def drop_one_edge(*args, **kwargs):
        result = original(*args, **kwargs)
        result.matching.remove(*result.matching.edges()[0])
        return result

    monkeypatch.setattr(fast_lid, "lid_matching_fast", drop_one_edge)
    code = run.main(["--workload", "static-large", "--seed", "0", "--seconds", str(QUICK_S),
                     "--trace", "0", "--quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_times_are_per_operation_medians_at_the_reference_speed(monkeypatch):
    passes = [[3.0, 1.0, 9.0], [2.0, 5.0, 4.0], [6.0, 1.5, 8.0]]
    assert run._typical(passes) == [3.0, 1.5, 8.0]
    got = run._timing_metrics([0.5, 0.2, 0.4], passes)
    assert got["setup_s"] == 0.4 and got["op_ms"] == 3000.0
    assert got["ops_per_s"] == 3 / 12.5
    # a host at half speed doubles the probes, on average, and the call
    probes = iter([1.5 * run.PROBE_REF_S, 2.5 * run.PROBE_REF_S])
    monkeypatch.setattr(run, "_probe_s", lambda: next(probes))
    clock = iter([10.0, 13.0])
    monkeypatch.setattr(run, "perf_counter", lambda: next(clock))
    result, seconds, scaled = run._timed(lambda: "out", run.nullcontext())
    assert (result, seconds) == ("out", 3.0) and scaled == pytest.approx(1.5)


def _bindings() -> dict:
    """Every module attribute and class attribute in the loaded ``repro`` modules."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            out[(mod_name, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in list(vars(value).items()):
                    out[(mod_name, attr, cattr)] = cvalue
    return out


#: bindings before any traced pass of this module ran
_BEFORE = _bindings()


def test_traced_pass_restores_every_wrapped_attribute(traced):
    import repro.overlay.churn as churn
    import repro.service.service as service

    before = _BEFORE
    original = churn.build_preference_system
    with pytest.raises(RuntimeError):
        with e2e_trace.Tracer() as tracer:
            assert churn.build_preference_system is not original
            assert service.MatchingService.apply is not before[
                ("repro.service.service", "MatchingService", "apply")]
            assert not tracer.absent
            raise RuntimeError("escape from inside the traced pass")
    after = _bindings()
    changed = [k for k in before if k in after and after[k] is not before[k]]
    assert changed == []
    assert not [k for k, v in after.items() if getattr(v, e2e_trace.TRACED_MARK, False)]


def test_missing_trace_target_is_reported_absent(monkeypatch):
    gone = (
        e2e_trace.Layer("gone.module", ("repro.no_such_module:f",)),
        e2e_trace.Layer("gone.attr", (
            "repro.core.fast:no_such_function",
            "repro.core.fast:FastInstance.no_such_method",
            "repro.core.no_such_class:Nothing.method",
        )),
    )
    monkeypatch.setattr(e2e_trace, "LAYERS", e2e_trace.LAYERS + gone)
    detail = run.run_workload("static-large", 0, QUICK_S, trace=True, quick=True)
    assert detail["correct"]
    assert sorted(detail["absent"]) == sorted(t for layer in gone for t in layer.targets)
    assert detail["layers"]["gone.module_pct"] == 0.0
    assert detail["layers"]["gone.attr_ms"] == 0.0
    assert detail["layers"]["core.fast_lid.lid_pct"] > 0.0


@pytest.mark.parametrize("name", NAMES)
def test_deterministic_sections_are_byte_identical(name, traced):
    first = run.run_workload(name, 0, QUICK_S, quick=True)
    second = run.run_workload(name, 0, QUICK_S, quick=True)
    # a run is whole passes of the workload's fixed operations
    for detail in (first, second):
        assert detail["attempted"] == detail["passes"] * detail["ops"]
    assert first["deterministic"], "deterministic section is empty"
    canon = json.dumps(first["deterministic"], sort_keys=True)
    assert canon == json.dumps(second["deterministic"], sort_keys=True)
    assert canon == json.dumps(traced[name]["deterministic"], sort_keys=True)


@pytest.mark.parametrize("name", NAMES)
def test_self_times_account_for_the_traced_op_time(name, traced):
    layers = traced[name]["layers"]
    op_layers = [layer.name for layer in e2e_trace.LAYERS if layer.root == "op"]
    covered = sum(layers[f"{n}_pct"] for n in op_layers) + layers[f"{e2e_trace.OTHER}_pct"]
    assert 95.0 <= covered <= 100.0 + 1e-6
    assert traced[name]["correct"] and not traced[name]["absent"]


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _cli("--workload", "static-large", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _ledger(label: str, median: float, det: dict) -> dict:
    timing = {m["name"]: {"median": median, "q1": median * 0.99, "q3": median * 1.01,
                          "samples": [median * 0.99, median, median * 1.01], "unit": m["unit"]}
              for m in SPEC["end_to_end"]}
    return {
        "label": label, "seed": 0, "quick": True, "seconds": 1, "repeats": 3,
        "fingerprint": {"nproc": 2},
        "deterministic": {name: det for name in NAMES},
        "timing": {name: timing for name in NAMES},
        "layers": {name: {"values": {"trace.op_ms": median}} for name in NAMES},
    }


def test_diff_flags_regressions_and_deterministic_drift(capsys):
    base = _ledger("a", 100.0, {"x": 1})
    assert diff.compare(base, _ledger("b", 101.0, {"x": 1}), SPEC) == 0
    assert diff.compare(base, _ledger("b", 150.0, {"x": 1}), SPEC) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert diff.compare(base, _ledger("b", 100.0, {"x": 2}), SPEC) == 1
    assert "DRIFT in x" in capsys.readouterr().out
    # spreads wider than every bound: overlapping samples cannot tell a
    # change from noise, but samples that separate by more than the bound can
    noisy = _ledger("b", 150.0, {"x": 1})
    for metrics in noisy["timing"].values():
        for t in metrics.values():
            t["q1"], t["q3"] = 50.0, 250.0
    assert diff.compare(base, noisy, SPEC) == 1
    assert "unresolved" not in capsys.readouterr().out
    for metrics in noisy["timing"].values():
        for t in metrics.values():
            t["samples"] = [50.0, 150.0, 250.0]
    assert diff.compare(base, noisy, SPEC) == 0
    assert "unresolved" in capsys.readouterr().out
