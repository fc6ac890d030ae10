"""Unit tests for certificates and theorem bound constants."""

import pytest

from repro.core.analysis import (
    approximation_ratio,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)


class TestBounds:
    def test_theorem1(self):
        assert theorem1_bound(1) == pytest.approx(1.0)
        assert theorem1_bound(2) == pytest.approx(0.75)
        assert theorem1_bound(4) == pytest.approx(0.625)

    def test_theorem2(self):
        assert theorem2_bound() == 0.5

    def test_theorem3_is_half_theorem1(self):
        for b in range(1, 8):
            assert theorem3_bound(b) == pytest.approx(0.5 * theorem1_bound(b))

    def test_theorem3_limits(self):
        assert theorem3_bound(1) == pytest.approx(0.5)
        assert theorem3_bound(10**9) == pytest.approx(0.25, rel=1e-6)

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            theorem1_bound(0)
        with pytest.raises(ValueError):
            theorem3_bound(-1)


class TestCertificateSizes:
    """The certificates refuse inputs that span another number of nodes."""

    @pytest.fixture
    def solved(self):
        from repro.core.lic import lic_matching
        from repro.core.weights import satisfaction_weights
        from repro.testing.strategies import random_ps

        ps = random_ps(8, 0.6, 2, seed=3)
        wt = satisfaction_weights(ps)
        return wt, list(ps.quotas), lic_matching(wt, ps.quotas)

    @pytest.mark.parametrize("certificate", ["weighted_blocking_edges", "greedy_certificate"])
    @pytest.mark.parametrize("delta", [3, -3])
    def test_matching_size_rejected(self, solved, certificate, delta):
        from repro.core import analysis
        from repro.core.matching import Matching

        wt, quotas, lic = solved
        other = Matching(wt.n + delta, lic.edges() if delta > 0 else ())
        with pytest.raises(ValueError, match=f"matching over {wt.n + delta} nodes, "
                           f"weight table has {wt.n}"):
            getattr(analysis, certificate)(wt, quotas, other)

    @pytest.mark.parametrize("certificate", ["weighted_blocking_edges", "greedy_certificate"])
    def test_short_quotas_rejected(self, solved, certificate):
        from repro.core import analysis

        wt, quotas, lic = solved
        with pytest.raises(ValueError, match=f"{wt.n - 2} quotas for a weight "
                           f"table over {wt.n} nodes"):
            getattr(analysis, certificate)(wt, quotas[:-2], lic)


class TestRatio:
    def test_normal(self):
        assert approximation_ratio(1.0, 2.0) == 0.5

    def test_zero_optimum_is_perfect(self):
        assert approximation_ratio(0.0, 0.0) == 1.0


class TestFairness:
    def test_jain_even_allocation(self):
        from repro.core.analysis import jain_fairness

        assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)

    def test_jain_single_winner(self):
        from repro.core.analysis import jain_fairness

        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_jain_edge_cases(self):
        from repro.core.analysis import jain_fairness

        assert jain_fairness([]) == 1.0
        assert jain_fairness([0, 0]) == 1.0
        with pytest.raises(ValueError):
            jain_fairness([-1, 2])

    def test_gini_even_and_uneven(self):
        from repro.core.analysis import gini_coefficient

        assert gini_coefficient([1, 1, 1]) == pytest.approx(0.0)
        assert gini_coefficient([0, 0, 0, 1]) == pytest.approx(0.75)
        assert gini_coefficient([]) == 0.0
