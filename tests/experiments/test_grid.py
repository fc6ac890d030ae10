"""Tests for the grid runner: stores, resume, aggregation, fault cells."""

import json

import pytest

from repro.experiments.aggregate import (
    NONCANONICAL_FIELDS,
    GridIncompleteError,
    collect_records,
    grid_status,
    render_report,
    summarise,
    write_report,
)
from repro.experiments.grid import (
    GridStore,
    StaleStoreError,
    run_grid,
    run_grid_cell,
)
from repro.experiments.gridspec import GridSpec
from repro.telemetry.sink import NONDETERMINISTIC_SUFFIXES

TINY = GridSpec(
    name="tiny",
    engines=("lic-reference", "lic-fast", "lid-reference", "lid-fast", "lid-service"),
    families=("er",),
    sizes=(14,),
    quotas=(2,),
    churn=(0, 4),
    seeds=(0, 1),
)

FAULTY = GridSpec(
    name="tiny-faults",
    engines=("resilient",),
    families=("er",),
    sizes=(16,),
    quotas=(2,),
    faults=("loss=0.1", "loss=0.2+crash=0.1"),
    seeds=(0,),
    density=0.3,
)


class TestRunGrid:
    def test_records_in_cell_order_and_ok(self):
        res = run_grid(TINY)
        assert [tuple(r[k] for k in ("engine", "churn", "seed"))
                for r in res.records] \
            == [(c.engine, c.churn, c.seed) for c in TINY.cells()]
        assert res.ok and not res.failures
        assert res.executed == len(TINY.cells()) and res.reused == 0

    def test_instances_are_engine_independent(self):
        res = run_grid(TINY)
        static = [r for r in res.records if not r["churn"]]
        by_seed = {}
        for r in static:
            by_seed.setdefault(r["seed"], set()).add(
                (r["m"], r["edges"], round(r["sat_total"], 9))
            )
        # every engine saw the same instance and found the same matching
        for seed, outcomes in by_seed.items():
            assert len(outcomes) == 1, (seed, outcomes)

    def test_lid_records_carry_protocol_metrics(self):
        res = run_grid(TINY)
        lid = [r for r in res.records if r["engine"] in ("lid-reference", "lid-fast")]
        assert lid
        for r in lid:
            assert r["lid_equals_lic"] is True
            assert r["messages"] > 0 and r["rounds"] > 0

    def test_parallel_matches_sequential(self):
        seq = run_grid(TINY)
        par = run_grid(TINY, workers=2)

        def strip_timings(rec):
            return {k: v for k, v in rec.items()
                    if not k.endswith(NONDETERMINISTIC_SUFFIXES)}

        assert [strip_timings(r) for r in seq.records] \
            == [strip_timings(r) for r in par.records]

    def test_resilient_cells_judged_like_campaign(self):
        res = run_grid(FAULTY)
        assert res.ok
        for r in res.records:
            assert r["terminated"] and r["violations"] == []
            assert 0.0 < r["degradation"] <= 1.0 + 1e-9

    def test_measure_ratio_records_theorem3_fields(self):
        spec = GridSpec(name="ratio", engines=("lid-reference",),
                        families=("er",), sizes=(12,), quotas=(2,),
                        seeds=(0,), density=0.4, measure_ratio=True)
        rec = run_grid(spec).records[0]
        assert rec["bound_ok"] and rec["ratio"] <= 1.0 + 1e-9
        assert rec["ratio"] >= rec["bound"] - 1e-9
        # the whole record must survive the JSON store
        json.dumps(rec)


class TestStoreResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        store = tmp_path / "grid"
        run_grid(TINY, store=store)
        paths = write_report(TINY, GridStore(store))
        ref = {k: paths[k].read_bytes() for k in ("report", "summary")}

        # simulate a mid-flight kill: a subset of cells never completed
        cell_files = sorted((store / "cells").glob("*.json"))
        deleted = cell_files[::3]
        for f in deleted:
            f.unlink()

        resumed = run_grid(TINY, store=store)
        assert resumed.executed == len(deleted)
        assert resumed.reused == len(cell_files) - len(deleted)

        paths2 = write_report(TINY, GridStore(store))
        assert paths2["report"].read_bytes() == ref["report"]
        assert paths2["summary"].read_bytes() == ref["summary"]

    def test_progress_streams_only_executed_cells(self, tmp_path):
        store = tmp_path / "grid"
        seen = []
        run_grid(TINY, store=store, progress=lambda c, r: seen.append(c))
        assert len(seen) == len(TINY.cells())
        seen.clear()
        run_grid(TINY, store=store, progress=lambda c, r: seen.append(c))
        assert seen == []  # everything reused

    def test_changed_spec_hash_refuses_stale_cells(self, tmp_path):
        store = tmp_path / "grid"
        run_grid(TINY, store=store)
        changed = GridSpec.from_mapping({**TINY.to_mapping(), "sizes": [15]})
        assert changed.spec_hash() != TINY.spec_hash()
        with pytest.raises(StaleStoreError, match="refusing to reuse"):
            run_grid(changed, store=store)
        # the original spec still resumes cleanly
        assert run_grid(TINY, store=store).reused == len(TINY.cells())

    def test_cells_without_spec_json_refused(self, tmp_path):
        store = tmp_path / "grid"
        run_grid(TINY, store=store)
        (store / "spec.json").unlink()
        with pytest.raises(StaleStoreError, match="no spec.json"):
            run_grid(TINY, store=store)


class TestAggregation:
    def test_summary_groups_over_seeds(self):
        res = run_grid(TINY)
        summary = summarise(res.records)
        assert all(row["count"] == len(TINY.seeds) for row in summary)
        assert len(summary) == len(TINY.cells()) // len(TINY.seeds)

    def test_summary_excludes_wallclock(self):
        res = run_grid(TINY)
        for row in summarise(res.records):
            assert not any(k.endswith("_ms") for k in row)

    def test_report_renders_failures_section_only_on_failure(self):
        res = run_grid(TINY)
        text = render_report(TINY, res.records)
        assert "## Failing cells" not in text
        bad = [dict(r) for r in res.records]
        bad[0]["ok"] = False
        assert "## Failing cells" in render_report(TINY, bad)

    def test_collect_requires_complete_store(self, tmp_path):
        store = GridStore(tmp_path / "grid")
        run_grid(TINY, store=store)
        next(iter((store.root / "cells").glob("*.json"))).unlink()
        with pytest.raises(GridIncompleteError, match="incomplete"):
            collect_records(TINY, store)
        assert len(collect_records(TINY, store, allow_partial=True)) \
            == len(TINY.cells()) - 1

    def test_grid_status_counts(self, tmp_path):
        store = GridStore(tmp_path / "grid")
        st = grid_status(TINY, store)
        assert st["done"] == 0 and st["total"] == len(TINY.cells())
        run_grid(TINY, store=store)
        st = grid_status(TINY, store)
        assert st["done"] == st["total"] and st["missing"] == []

    def test_write_report_out_dir(self, tmp_path):
        store = GridStore(tmp_path / "grid")
        run_grid(TINY, store=store)
        paths = write_report(TINY, store, out_dir=tmp_path / "results")
        assert paths["out_summary"].name == "grid_tiny_summary.csv"
        assert paths["out_summary"].read_bytes() \
            == paths["summary"].read_bytes()


class TestCampaignOnGrid:
    """Fault-campaign cells through the store and the process pool."""

    SPEC = GridSpec(
        name="campaign-on-grid",
        engines=("resilient",),
        sizes=(20,),
        quotas=(3,),
        density=0.15,
        faults=("loss=0.1", "loss=0.1+crash=0.08"),
        seeds=(0,),
    )

    def test_campaign_store_resumes(self, tmp_path):
        store = tmp_path / "campaign"
        first = run_grid(self.SPEC, store=store)
        assert first.ok and first.executed == 2
        streamed = []
        second = run_grid(self.SPEC, store=store,
                          progress=lambda cell, rec: streamed.append(cell))
        assert streamed == []  # fully reused
        assert second.reused == 2
        # violation lists and float satisfactions survive the JSON store
        assert second.records == first.records

    def test_campaign_grid_matches_direct_run_cell(self):
        def strip(rec):
            return {k: v for k, v in rec.items()
                    if not k.endswith("_ms") and k not in NONCANONICAL_FIELDS}

        pooled = run_grid(self.SPEC, workers=2)
        direct = [run_grid_cell(self.SPEC, c) for c in self.SPEC.cells()]
        assert [strip(r) for r in pooled.records] == [strip(r) for r in direct]


def test_run_grid_cell_is_pure_of_spec_extras():
    """Adding an unrelated axis value must not change sibling cells."""
    base = GridSpec(name="a", engines=("lic-fast",), families=("er",),
                    sizes=(14,), quotas=(2,), seeds=(0,), density=0.35)
    wider = GridSpec(name="b", engines=("lic-fast", "lid-fast"),
                     families=("er",), sizes=(14,), quotas=(2,), seeds=(0,),
                     density=0.35)
    cell = base.cells()[0]
    a = run_grid_cell(base, cell)
    b = run_grid_cell(wider, wider.cells()[0])
    def strip(r):
        return {k: v for k, v in r.items() if not k.endswith("_ms")}

    assert strip(a) == strip(b)


class TestHungCellWatchdog:
    SPEC = GridSpec(
        name="one-cell",
        engines=("lic-fast",),
        families=("er",),
        sizes=(12,),
        quotas=(2,),
        churn=(0,),
        seeds=(0,),
        density=0.35,
    )

    def test_double_timeout_persists_failure_record(self, monkeypatch):
        import repro.experiments.grid as grid_mod

        calls = {"n": 0}

        def always_hung(spec, cell, telemetry=False):
            calls["n"] += 1
            raise grid_mod.CellTimeout(f"cell {cell.cell_id} hung")

        monkeypatch.setattr(grid_mod, "run_grid_cell", always_hung)
        res = grid_mod.run_grid(self.SPEC, cell_timeout=5.0)
        assert calls["n"] == 2  # one retry, then give up
        rec = res.records[0]
        assert rec["ok"] is False
        assert rec["error"] == "timeout"
        assert rec["retries"] == 1
        assert not res.ok

    def test_transient_timeout_retried_once(self, monkeypatch):
        import repro.experiments.grid as grid_mod

        real = grid_mod.run_grid_cell
        calls = {"n": 0}

        def flaky(spec, cell, telemetry=False):
            calls["n"] += 1
            if calls["n"] == 1:
                raise grid_mod.CellTimeout("transient hang")
            return real(spec, cell, telemetry=telemetry)

        monkeypatch.setattr(grid_mod, "run_grid_cell", flaky)
        res = grid_mod.run_grid(self.SPEC, cell_timeout=5.0)
        rec = res.records[0]
        assert rec["ok"] is True
        assert rec["retries"] == 1
        assert res.ok

    def test_alarm_actually_interrupts_a_hung_cell(self, monkeypatch):
        import signal
        import time as time_mod

        import repro.experiments.grid as grid_mod

        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")

        def sleepy(spec, cell, telemetry=False):
            time_mod.sleep(30)
            return {"ok": True}

        monkeypatch.setattr(grid_mod, "run_grid_cell", sleepy)
        t0 = time_mod.perf_counter()
        res = grid_mod.run_grid(self.SPEC, cell_timeout=0.2)
        assert time_mod.perf_counter() - t0 < 10
        rec = res.records[0]
        assert rec["ok"] is False and rec["error"] == "timeout"

    def test_untimed_cells_record_zero_retries(self):
        res = run_grid(self.SPEC)
        assert res.records[0]["retries"] == 0

    def test_cell_timeout_validation(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            run_grid(self.SPEC, cell_timeout=0)


class TestRetriesAreNonCanonical:
    def test_retries_excluded_from_metric_fields_and_summary(self):
        from repro.experiments.aggregate import _metric_fields

        res = run_grid(TINY)
        assert all("retries" in r for r in res.records)
        assert "retries" not in _metric_fields(res.records)
        for row in summarise(res.records):
            assert "retries" not in row


class TestServiceEngineCells:
    SPEC = GridSpec(
        name="svc",
        engines=("lid-service", "lic-fast"),
        families=("er",),
        sizes=(14,),
        quotas=(2,),
        churn=(0, 12),
        seeds=(0,),
        service_workload="storm",
        service_differential_every=6,
    )

    def test_service_cells_run_and_conform(self):
        res = run_grid(self.SPEC)
        service = [r for r in res.records if r["engine"] == "lid-service"]
        assert len(service) == 1  # only at churn > 0
        rec = service[0]
        assert rec["ok"] is True
        assert rec["workload"] == "storm"
        assert rec["trace_events"] == 12
        assert rec["completed"] is True
        assert rec["differential_ok"] is True
        assert rec["guard_violations"] == 0
        assert len(rec["matching_sha"]) == 12
        json.dumps(res.records[0])

    def test_service_records_are_deterministic(self):
        from repro.telemetry.sink import canonical_fields

        cell = [c for c in self.SPEC.cells()
                if c.engine == "lid-service"][0]
        a = run_grid_cell(self.SPEC, cell)
        b = run_grid_cell(self.SPEC, cell)
        assert canonical_fields(a) == canonical_fields(b)
