"""Cross-validation of the exact solvers (MILP / gadget / brute force)."""

import pytest
from hypothesis import given, settings

from repro.baselines.exact import (
    brute_force_bmatching,
    max_satisfaction_bmatching_milp,
    max_weight_bmatching_gadget,
    max_weight_bmatching_milp,
    optimal_satisfaction,
    optimal_weight,
)
from repro.core.weights import WeightTable, satisfaction_weights

from repro.testing.strategies import preference_systems, random_ps, weighted_instances


class TestMaxWeightMILP:
    def test_simple_path(self):
        wt = WeightTable({(0, 1): 3.0, (1, 2): 2.0}, 3)
        m = max_weight_bmatching_milp(wt, [1, 1, 1])
        assert m.edge_set() == {(0, 1)}

    def test_beats_greedy_on_augmenting_path(self):
        # greedy takes the middle edge (weight 3) and loses 2+2=4
        wt = WeightTable({(0, 1): 2.0, (1, 2): 3.0, (2, 3): 2.0}, 4)
        m = max_weight_bmatching_milp(wt, [1, 1, 1, 1])
        assert m.edge_set() == {(0, 1), (2, 3)}

    def test_quota_respected(self):
        wt = WeightTable({(0, i): 1.0 + i for i in range(1, 5)}, 5)
        m = max_weight_bmatching_milp(wt, [2, 1, 1, 1, 1])
        assert m.degree(0) == 2
        assert m.edge_set() == {(0, 3), (0, 4)}

    def test_empty_graph(self):
        assert max_weight_bmatching_milp(WeightTable({}, 3), [1, 1, 1]).size() == 0


class TestCrossValidation:
    @settings(max_examples=25, deadline=None)
    @given(weighted_instances(max_n=6))
    def test_milp_equals_brute_force(self, inst):
        wt, quotas = inst
        if wt.m > 12:
            return
        milp = max_weight_bmatching_milp(wt, quotas)
        _, bf_val = brute_force_bmatching(wt, quotas, max_edges=12)
        assert milp.total_weight(wt) == pytest.approx(bf_val)

    @settings(max_examples=15, deadline=None)
    @given(weighted_instances(max_n=6))
    def test_gadget_equals_milp(self, inst):
        wt, quotas = inst
        if wt.m > 12:
            return
        milp = max_weight_bmatching_milp(wt, quotas)
        gadget = max_weight_bmatching_gadget(wt, quotas)
        assert gadget.total_weight(wt) == pytest.approx(milp.total_weight(wt))

    @settings(max_examples=15, deadline=None)
    @given(preference_systems(max_n=6))
    def test_satisfaction_milp_equals_brute_force(self, ps):
        if ps.m > 12:
            return
        wt = satisfaction_weights(ps) if ps.m else None
        milp = max_satisfaction_bmatching_milp(ps)
        if ps.m == 0:
            assert milp.size() == 0
            return
        _, bf_val = brute_force_bmatching(
            wt,
            list(ps.quotas),
            objective=lambda M: M.total_satisfaction(ps),
            max_edges=12,
        )
        assert milp.total_satisfaction(ps) == pytest.approx(bf_val)


class TestSatisfactionDecomposition:
    @settings(max_examples=20, deadline=None)
    @given(preference_systems(max_n=7))
    def test_objective_decomposition(self, ps):
        """Σ_i S_i == w(M) + Σ_i c_i(c_i-1)/(2 b_i ℓ_i) for any matching."""
        if ps.m == 0:
            return
        wt = satisfaction_weights(ps)
        m = max_satisfaction_bmatching_milp(ps)
        count_term = sum(
            m.degree(i) * (m.degree(i) - 1) / (2.0 * ps.quota(i) * ps.list_length(i))
            for i in ps.nodes()
            if ps.quota(i)
        )
        assert m.total_satisfaction(ps) == pytest.approx(
            m.total_weight(wt) + count_term
        )

    def test_satisfaction_opt_at_least_weight_opt_matching(self):
        ps = random_ps(10, 0.5, 2, seed=1, ensure_edges=True)
        wt = satisfaction_weights(ps)
        m_w = max_weight_bmatching_milp(wt, ps.quotas)
        s_opt = optimal_satisfaction(ps)
        assert s_opt >= m_w.total_satisfaction(ps) - 1e-9


class TestBruteForce:
    def test_refuses_large(self):
        wt = WeightTable({(i, i + 1): 1.0 for i in range(25)}, 26)
        with pytest.raises(ValueError, match="limited"):
            brute_force_bmatching(wt, [1] * 26)

    def test_custom_objective(self):
        wt = WeightTable({(0, 1): 10.0, (1, 2): 1.0}, 3)
        # objective favouring many edges regardless of weight
        m, val = brute_force_bmatching(
            wt, [2, 2, 2], objective=lambda M: M.size()
        )
        assert val == 2 and m.size() == 2


class TestHelpers:
    def test_optimal_weight(self):
        wt = WeightTable({(0, 1): 2.0, (1, 2): 3.0, (2, 3): 2.0}, 4)
        assert optimal_weight(wt, [1, 1, 1, 1]) == pytest.approx(4.0)

