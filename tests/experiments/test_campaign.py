"""Tests for the fault campaign: the grid's ``resilient`` engine swept
over loss x crash x partition x Byzantine (``grid run --profile
chaos|faults``)."""

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.grid import run_grid, run_grid_cell
from repro.experiments.gridspec import PROFILES, FaultSpec, GridSpec


def campaign_spec(**overrides) -> GridSpec:
    base = dict(
        name="small-campaign",
        engines=("resilient",),
        sizes=(24,),
        quotas=(3,),
        density=0.15,
        faults=tuple(
            FaultSpec(loss=0.1, crash=cr, partition=pa, byzantine=by).label()
            for cr in (0.0, 0.08)
            for pa in (False, True)
            for by in (0.0, 0.1)
        ),
        seeds=(0,),
    )
    base.update(overrides)
    return GridSpec(**base)


SMALL = campaign_spec()


def _cell(fault: str):
    return next(c for c in SMALL.cells() if c.fault == fault)


def _strip_timings(record: dict) -> dict:
    return {k: v for k, v in record.items() if not k.endswith("_ms")}


class TestConfig:
    def test_cell_enumeration_is_the_cross_product(self):
        cells = SMALL.cells()
        assert len(cells) == 1 * 2 * 2 * 2 * 1
        assert len({c.cell_id for c in cells}) == len(cells)

    def test_rejects_large_byzantine_fraction(self):
        with pytest.raises(ValueError, match="byzantine"):
            campaign_spec(faults=("byz=0.9",))

    def test_rejects_budget_shorter_than_partition(self):
        # a 2-retry budget gives up long before the partition heals
        with pytest.raises(ValueError, match="span"):
            campaign_spec(backoff=(0.5, 2.0, 1.0, 0.0, 2), suspect_after=20.0)

    def test_budget_check_applies_to_resilient_specs_only(self):
        spec = campaign_spec(engines=("lic-fast",), faults=("none",),
                             backoff=(0.5, 2.0, 1.0, 0.0, 2),
                             suspect_after=20.0)
        assert spec.cells()

    def test_bad_backoff_fails_when_the_spec_is_built(self):
        with pytest.raises(ValueError, match="budget"):
            campaign_spec(backoff=(3.0, 2.0, 30.0, 0.1, 0))

    def test_partition_window_outlasts_suspicion(self):
        start, end = SMALL.partition_window()
        assert start == SMALL.partition_start
        assert end - start > SMALL.suspect_after

    def test_chaos_profile_is_the_adversarial_matrix(self):
        chaos = PROFILES["chaos"]
        assert chaos.density == 0.15
        coords = [
            (c.engine, c.family, c.n, c.b, c.churn, FaultSpec.parse(c.fault),
             c.seed)
            for c in chaos.cells()
        ]
        assert coords == [
            ("resilient", "er", 500, 3, 0,
             FaultSpec(loss=loss, crash=0.05, partition=True, byzantine=byz),
             seed)
            for loss in (0.05, 0.3)
            for byz in (0.0, 0.05)
            for seed in (0, 1)
        ]


class TestCampaignRuns:
    def test_every_cell_passes(self):
        res = run_grid(SMALL)
        assert len(res.records) == 8
        assert res.ok, [(r["fault"], r["violations"][:2]) for r in res.failures]
        for r in res.records:
            assert r["terminated"] and r["violations"] == [] and r["valid"]
            assert r["blocking_edges"] == 0
            assert 0.0 < r["degradation"] <= 1.0 + 1e-9

    def test_fault_free_ish_cell_keeps_welfare(self):
        rec = run_grid_cell(SMALL, _cell("loss=0.1"))
        assert rec["ok"]
        assert rec["degradation"] > 0.9
        assert rec["live_honest"] == 24
        assert rec["clean"] >= 24 - 4

    def test_cells_are_deterministic(self):
        cell = _cell("loss=0.1+crash=0.08+partition+byz=0.1")
        a = run_grid_cell(SMALL, cell)
        b = run_grid_cell(SMALL, cell)
        assert _strip_timings(a) == _strip_timings(b)
        assert a["events"] > 0 and a["retransmissions"] > 0

    def test_progress_callback_streams_cells(self):
        seen = []
        run_grid(SMALL, progress=lambda cell, rec: seen.append(rec))
        assert len(seen) == 8
        assert all(r["ok"] for r in seen)

    @pytest.mark.parametrize("degree", [3, 12])
    def test_cells_follow_the_spec_degree(self, degree):
        # a fault-free resilient run selects LIC's edges (Lemmas 4/6),
        # so on the shared instance it matches lic-fast edge for edge
        spec = GridSpec(name="degree", engines=("resilient", "lic-fast"),
                        sizes=(40,), degree=degree)
        resilient, lic = run_grid(spec).records
        assert (resilient["engine"], lic["engine"]) == ("resilient", "lic-fast")
        assert resilient["matched_edges"] == lic["edges"]


class TestCampaignCli:
    TOML = """\
name = "cli-campaign"
engines = ["resilient"]
sizes = [16]
quotas = [3]
density = 0.15
faults = ["loss=0.1", "loss=0.1+crash=0.08+partition+byz=0.1"]
seeds = [0]
"""

    def test_campaign_command_passes(self, tmp_path, capsys):
        pytest.importorskip("tomllib")
        spec = tmp_path / "campaign.toml"
        spec.write_text(self.TOML)
        assert main(["grid", "run", "--spec", str(spec),
                     "--store", str(tmp_path / "store")]) == 0
        assert "all 2 cells ok" in capsys.readouterr().out

    def test_campaign_smoke_flag_parses(self):
        args = build_parser().parse_args(["grid", "run", "--profile", "chaos",
                                          "--workers", "2"])
        assert (args.profile, args.workers) == ("chaos", 2)
