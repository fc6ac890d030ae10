"""Tests for the experiments harness (instances, aggregate, reporting, ratios)."""

import numpy as np
import pytest

from repro.experiments.aggregate import aggregate
from repro.experiments.instances import (
    FAMILIES,
    cyclic_roommates,
    family_instance,
    random_preference_instance,
    random_weighted_instance,
    topology_for_family,
)
from repro.experiments.ratios import satisfaction_ratio_record, weight_ratio_record
from repro.experiments.reporting import format_table, write_csv


class TestInstances:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_build(self, family):
        topo = topology_for_family(family, 30, np.random.default_rng(0))
        assert topo.n == 30
        ps = family_instance(family, 30, 2, seed=1)
        assert ps.n == 30

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            topology_for_family("nope", 10, np.random.default_rng(0))

    def test_random_preference_instance_reproducible(self):
        a = random_preference_instance(15, 0.3, 2, seed=9)
        b = random_preference_instance(15, 0.3, 2, seed=9)
        assert a == b

    def test_weighted_instance(self):
        wt, quotas = random_weighted_instance(20, 0.3, seed=1)
        assert wt.n == 20 and len(quotas) == 20
        assert all(1 <= q <= 4 for q in quotas)
        assert all(w > 0 for _, w in wt.items())

    def test_cyclic_roommates_structure(self):
        ps = cyclic_roommates(5)
        assert ps.n == 5 and ps.m == 5
        for i in range(5):
            assert ps.rank(i, (i + 1) % 5) == 0  # prefers successor
        with pytest.raises(ValueError):
            cyclic_roommates(2)


class TestRatios:
    def test_weight_ratio_record_fields(self):
        wt, quotas = random_weighted_instance(15, 0.3, seed=2)
        rec = weight_ratio_record(wt, quotas)
        assert rec["bound_ok"] and rec["certificate"] and rec["lid_equals_lic"]
        assert 0.5 <= rec["ratio"] <= 1.0 + 1e-9

    def test_satisfaction_ratio_record_fields(self):
        ps = random_preference_instance(12, 0.4, 2, seed=3)
        rec = satisfaction_ratio_record(ps)
        assert rec["bound_ok"]
        assert rec["ratio"] <= 1.0 + 1e-9
        assert rec["bound"] == pytest.approx(0.25 * (1 + 1 / ps.b_max))


class TestRunner:
    def test_aggregate_means_and_bool_fractions(self):
        rows = [
            {"g": "x", "v": 1.0, "ok": True},
            {"g": "x", "v": 3.0, "ok": False},
            {"g": "y", "v": 10.0, "ok": True},
        ]
        agg = aggregate(rows, ["g"], ["v", "ok"])
        by_g = {r["g"]: r for r in agg}
        assert by_g["x"]["v"] == 2.0 and by_g["x"]["ok"] == 0.5
        assert by_g["y"]["count"] == 1

    def test_aggregate_custom_reducer(self):
        rows = [{"g": 1, "v": 5.0}, {"g": 1, "v": 1.0}]
        agg = aggregate(rows, ["g"], ["v"], reducers={"v": min})
        assert agg[0]["v"] == 1.0


class TestReporting:
    def test_format_table(self):
        text = format_table(
            [{"a": 1, "ok": True, "r": 0.51234}], title="T"
        )
        assert "T" in text and "a" in text and "yes" in text and "0.5123" in text

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_write_csv(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv([{"a": 1, "b": 2}, {"a": 3, "c": 4}], p)
        text = p.read_text()
        assert text.splitlines()[0] == "a,b,c"
        assert "3,,4" in text

    def test_write_csv_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_csv([], p)
        assert p.read_text() == ""


class TestHistogram:
    def test_ascii_histogram_shape(self):
        from repro.experiments.reporting import ascii_histogram

        text = ascii_histogram([0.1, 0.1, 0.9], bins=2, width=10, lo=0, hi=1)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert "2" in lines[0] and "1" in lines[1]
        assert lines[0].count("#") == 10  # peak bin at full width

    def test_ascii_histogram_empty_and_flat(self):
        from repro.experiments.reporting import ascii_histogram

        assert "(no data)" in ascii_histogram([])
        # constant data must not divide by zero
        text = ascii_histogram([0.5, 0.5, 0.5], bins=4)
        assert text.count("3") >= 1
