"""The oracle battery: clean matchings pass, every corruption is typed."""

from hypothesis import given, settings

from repro.core.lic import lic_matching, solve_modified_bmatching
from repro.core.matching import Matching
from repro.core.weights import WeightTable, satisfaction_weights
from repro.testing.oracles import (
    OracleReport,
    Violation,
    check_edge_locality,
    check_mutual_consistency,
    check_quota,
    check_satisfaction,
    check_symmetric_weights,
    check_theorem1_bound,
    check_theorem3_bound,
    verify_matching,
)
from repro.testing.strategies import preference_systems, random_ps


def _solved(ps):
    matching, wt = solve_modified_bmatching(ps)
    return matching, wt


class TestCleanMatchingsPass:
    @settings(max_examples=25, deadline=None)
    @given(preference_systems())
    def test_lic_output_passes_battery(self, ps):
        matching, wt = _solved(ps)
        report = verify_matching(ps, matching, wt=wt)
        assert report.ok, report.summary()

    def test_bounds_pass_on_small_instance(self):
        ps = random_ps(8, 0.5, 2, seed=3, ensure_edges=True)
        matching, wt = _solved(ps)
        report = verify_matching(ps, matching, wt=wt, bounds=True)
        assert report.ok, report.summary()
        assert "theorem1-bound" in report.checks_run
        assert "theorem3-bound" in report.checks_run

    def test_profile_checked_when_given(self):
        ps = random_ps(10, 0.4, 2, seed=1, ensure_edges=True)
        matching, _ = _solved(ps)
        good = matching.satisfaction_vector(ps)
        assert check_satisfaction(ps, matching, profile=good).ok
        bad = good + 0.25
        report = check_satisfaction(ps, matching, profile=bad)
        assert not report.ok
        assert all(v.check == "satisfaction" for v in report.violations)


class TestCorruptionsAreTyped:
    def test_quota_violation(self, small_ps):
        # node 0 has quota 1; hand it both neighbours
        over = Matching(small_ps.n, [(0, 1), (0, 2)])
        report = check_quota(small_ps, over)
        [v] = report.violations
        assert v.check == "quota" and v.subject == 0
        assert v.observed == 2.0 and v.expected == 1.0

    def test_edge_locality_violation(self, small_ps):
        # (0, 4) is not in E
        forged = [set(), set(), set(), set(), {0}]
        report = check_edge_locality(small_ps, forged)
        assert any(v.subject == (0, 4) for v in report.violations)

    def test_mutual_consistency_violation(self, small_ps):
        one_sided = [{1}, set(), set(), set(), set()]
        report = check_mutual_consistency(small_ps, one_sided)
        [v] = report.violations
        assert v.check == "mutual-consistency" and v.subject == (0, 1)

    def test_satisfaction_skips_infeasible_nodes(self, small_ps):
        # over-quota and non-local corruption is quota/locality's job;
        # the satisfaction oracle must not crash on it
        corrupt = [{1, 2}, {0}, {0}, set(), {0}]
        assert check_satisfaction(small_ps, corrupt).ok

    def test_symmetric_weights_detects_perturbation(self, small_ps):
        wt = satisfaction_weights(small_ps)
        weights = dict(wt.items())
        victim = max(weights)
        weights[victim] *= 2.0
        bad = WeightTable.from_trusted(weights, small_ps.n)
        report = check_symmetric_weights(small_ps, bad)
        assert any(v.subject == victim for v in report.violations)

    def test_symmetric_weights_detects_missing_edge(self, small_ps):
        wt = satisfaction_weights(small_ps)
        weights = dict(wt.items())
        victim = min(weights)
        del weights[victim]
        bad = WeightTable.from_trusted(weights, small_ps.n)
        report = check_symmetric_weights(small_ps, bad)
        assert any(
            v.subject == victim and "missing" in v.message
            for v in report.violations
        )

    def test_theorem3_flags_empty_matching(self):
        ps = random_ps(8, 0.6, 2, seed=2, ensure_edges=True)
        empty = Matching(ps.n, [])
        report = check_theorem3_bound(ps, empty)
        assert not report.ok

    def test_theorem1_accepts_cached_optimum(self):
        ps = random_ps(6, 0.6, 2, seed=4, ensure_edges=True)
        from repro.baselines.exact import optimal_satisfaction

        opt = optimal_satisfaction(ps)
        assert check_theorem1_bound(ps, optimum=opt).ok


class TestNodeCount:
    """A matching over other nodes than the instance's is one typed violation."""

    STRUCTURAL = (check_quota, check_edge_locality, check_mutual_consistency)

    @staticmethod
    def _lic(ps):
        return lic_matching(satisfaction_weights(ps), ps.quotas)

    def test_fewer_nodes(self):
        ps = random_ps(8, 0.6, 2, seed=3)
        short = Matching(ps.n - 3)
        for oracle in self.STRUCTURAL:
            [v] = oracle(ps, short).violations
            assert v.subject == "*" and "5 nodes" in v.message and "has 8" in v.message
        assert not verify_matching(ps, short).ok

    def test_more_nodes(self):
        ps = random_ps(8, 0.6, 2, seed=3)
        wide = Matching(ps.n + 3, self._lic(ps).edges())
        for oracle in self.STRUCTURAL:
            [v] = oracle(ps, wide).violations
            assert (v.observed, v.expected) == (11.0, 8.0)
        report = verify_matching(ps, wide)
        assert sorted(report.by_check()) == ["edge-locality", "mutual-consistency", "quota"]

    def test_lock_set_outside_the_instance(self):
        ps = random_ps(8, 0.6, 2, seed=3)
        lic = self._lic(ps)
        locks = {i: set(lic.connections(i)) for i in range(ps.n)}
        assert verify_matching(ps, locks).ok
        locks[ps.n + 2] = {0}
        for oracle in self.STRUCTURAL:
            [v] = oracle(ps, locks).violations
            assert v.subject == ps.n + 2
        assert not verify_matching(ps, locks).ok

    def test_is_stable_rejects_both_sizes(self):
        from repro.baselines.verify import is_stable, stability_report

        ps = random_ps(8, 0.6, 2, seed=3)
        for matching in (Matching(ps.n - 3), Matching(ps.n + 3, self._lic(ps).edges())):
            assert is_stable(ps, matching) is False
            assert "stability" not in stability_report(ps, matching).by_check()


class TestReportMechanics:
    def test_extend_merges_and_dedups_checks(self):
        a = OracleReport(checks_run=["quota"])
        b = OracleReport(
            violations=[Violation(check="quota", subject=0, message="x")],
            checks_run=["quota", "edge-locality"],
        )
        a.extend(b)
        assert a.checks_run == ["quota", "edge-locality"]
        assert not a.ok

    def test_by_check_groups(self):
        r = OracleReport(violations=[
            Violation(check="quota", subject=0, message="x"),
            Violation(check="quota", subject=1, message="y"),
            Violation(check="stability", subject=(0, 1), message="z"),
        ])
        grouped = r.by_check()
        assert len(grouped["quota"]) == 2 and len(grouped["stability"]) == 1

    def test_summary_mentions_every_check(self):
        ps = random_ps(6, 0.5, 2, seed=0, ensure_edges=True)
        matching = lic_matching(satisfaction_weights(ps), ps.quotas)
        s = verify_matching(ps, matching).summary()
        for check in ("quota", "edge-locality", "mutual-consistency",
                      "satisfaction"):
            assert f"{check}: ok" in s

    def test_raw_lock_sets_accepted(self, small_ps):
        # distributed runs verify dict node -> locked partners directly
        locks = {0: [1], 1: [0]}
        assert verify_matching(small_ps, locks).ok


class TestVerifyShim:
    def test_check_matching_delegates(self, small_ps):
        from repro.baselines.verify import check_matching

        matching, wt = _solved(small_ps)
        assert check_matching(small_ps, matching, wt=wt).ok

    def test_stability_report_counts_blocking_pairs(self, triangle_ps):
        from repro.baselines.verify import stability_report

        # empty matching on the 3-cycle: every edge blocks
        report = stability_report(triangle_ps, Matching(3, []))
        assert len(report.by_check().get("stability", [])) == 3
