"""Vectorised kernels must agree exactly with the scalar references."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.fast import (
    FastInstance,
    edge_weight_arrays,
    lic_matching_fast,
    satisfaction_profile_fast,
    satisfaction_weights_fast,
)
from repro.core.lic import lic_matching, solve_modified_bmatching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import satisfaction_weights

from repro.testing.strategies import preference_systems, random_ps, weighted_instances


class TestWeightsFast:
    @settings(max_examples=30, deadline=None)
    @given(preference_systems())
    def test_matches_scalar_weights(self, ps):
        scalar = satisfaction_weights(ps)
        fast = satisfaction_weights_fast(ps)
        assert fast.m == scalar.m
        for i, j in ps.edges():
            assert fast.weight(i, j) == pytest.approx(scalar.weight(i, j), abs=1e-14)

    def test_edge_arrays_shape(self):
        ps = random_ps(20, 0.3, 2, seed=1, ensure_edges=True)
        i_arr, j_arr, w = edge_weight_arrays(ps)
        assert len(i_arr) == len(j_arr) == len(w) == ps.m
        assert (i_arr < j_arr).all()
        assert (w > 0).all()

    def test_same_greedy_result(self):
        ps = random_ps(30, 0.3, 3, seed=2, ensure_edges=True)
        from repro.core.lic import lic_matching

        a = lic_matching(satisfaction_weights(ps), ps.quotas)
        b = lic_matching(satisfaction_weights_fast(ps), ps.quotas)
        assert a.edge_set() == b.edge_set()


def _scatter_profile(ps, matching, kind):
    """Per-edge scatter sums over the matched edges, then the closed forms:
    the edge-order arithmetic the per-node pass must reproduce bit for bit."""
    counts = np.zeros(ps.n)
    rank_sums = np.zeros(ps.n)
    for i, j in matching.edges():
        counts[i] += 1.0
        counts[j] += 1.0
        rank_sums[i] += ps.rank(i, j)
        rank_sums[j] += ps.rank(j, i)
    ell = np.array([max(ps.list_length(v), 1) for v in ps.nodes()], dtype=np.float64)
    b_true = np.array(ps.quotas, dtype=np.float64)
    b = np.maximum(b_true, 1.0)
    out = counts / b - rank_sums / (b * ell)
    if kind == "full":
        out = out + counts * (counts - 1.0) / (2.0 * b * ell)
    out[b_true == 0] = 0.0
    return out


class TestSatisfactionFast:
    @settings(max_examples=30, deadline=None)
    @given(preference_systems())
    def test_matches_scalar_profile(self, ps):
        matching, _ = solve_modified_bmatching(ps)
        for kind in ("full", "static"):
            fast = satisfaction_profile_fast(ps, matching, kind)
            slow = matching.satisfaction_vector(ps, kind)
            assert np.allclose(fast, slow, atol=1e-12)
            ref = _scatter_profile(ps, matching, kind)
            assert fast.tobytes() == ref.tobytes()

    def test_rejects_a_matching_it_cannot_score(self):
        from repro.core.matching import Matching

        ps = PreferenceSystem({0: [1], 1: [0], 2: [3], 3: [2]}, 1)
        for n in (3, 5):
            with pytest.raises(ValueError, match="nodes"):
                satisfaction_profile_fast(ps, Matching(n))
        with pytest.raises(KeyError, match="node 2 is not a neighbour of node 0"):
            satisfaction_profile_fast(ps, Matching(4, [(0, 2)]))

    def test_empty_matching(self):
        ps = random_ps(10, 0.3, 2, seed=3, ensure_edges=True)
        from repro.core.matching import Matching

        fast = satisfaction_profile_fast(ps, Matching(ps.n))
        assert np.allclose(fast, 0.0)

    def test_isolated_nodes_score_zero(self):
        from repro.core.preferences import PreferenceSystem
        from repro.core.matching import Matching

        ps = PreferenceSystem({0: [1], 1: [0], 2: []}, 1)
        out = satisfaction_profile_fast(ps, Matching(3, [(0, 1)]))
        assert out[2] == 0.0 and out[0] == pytest.approx(1.0)

    def test_invalid_kind(self):
        ps = random_ps(5, 0.5, 1, seed=0, ensure_edges=True)
        from repro.core.matching import Matching

        with pytest.raises(ValueError):
            satisfaction_profile_fast(ps, Matching(ps.n), kind="bogus")

    def test_faster_on_large_instance(self):
        """Sanity: the vectorised path is not slower at n=800."""
        import time

        ps = random_ps(800, 0.01, 3, seed=5, ensure_edges=True)
        matching, _ = solve_modified_bmatching(ps)
        t0 = time.perf_counter()
        slow = matching.satisfaction_vector(ps)
        t_slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = satisfaction_profile_fast(ps, matching)
        t_fast = time.perf_counter() - t0
        assert np.allclose(fast, slow)
        assert t_fast < t_slow * 2.0  # never pathological


class TestFastInstance:
    def test_canonical_edge_order(self):
        ps = random_ps(40, 0.2, 3, seed=7, ensure_edges=True)
        fi = FastInstance.from_preference_system(ps)
        assert fi.n == ps.n and fi.m == ps.m
        edges = list(zip(fi.i.tolist(), fi.j.tolist()))
        assert edges == sorted(ps.edges())  # ascending (i, j), i < j
        assert (fi.i < fi.j).all()

    def test_ranks_match_preference_lists(self):
        ps = random_ps(25, 0.3, 2, seed=11, ensure_edges=True)
        fi = FastInstance.from_preference_system(ps)
        for k in range(fi.m):
            i, j = int(fi.i[k]), int(fi.j[k])
            assert fi.ri[k] == ps.rank(i, j)
            assert fi.rj[k] == ps.rank(j, i)
            assert fi.ell[i] == len(ps.preference_list(i))

    def test_weights_bit_identical_to_reference(self):
        ps = random_ps(30, 0.3, 3, seed=13, ensure_edges=True)
        fi = FastInstance.from_preference_system(ps)
        wt = satisfaction_weights(ps)
        for k in range(fi.m):
            # bit-identical, not approx: same IEEE op order as delta_static
            assert fi.w[k] == wt.weight(int(fi.i[k]), int(fi.j[k]))

    def test_sorted_order_matches_weight_table(self):
        ps = random_ps(30, 0.3, 3, seed=17, ensure_edges=True)
        fi = FastInstance.from_preference_system(ps)
        order = fi.sorted_order()
        scanned = [(int(fi.i[k]), int(fi.j[k])) for k in order]
        assert scanned == fi.weight_table().sorted_edges()
        assert fi.sorted_order() is order  # cached

    def test_weight_table_round_trip(self):
        ps = random_ps(20, 0.3, 2, seed=19, ensure_edges=True)
        fi = FastInstance.from_preference_system(ps)
        wt = fi.weight_table()
        assert wt.m == ps.m
        fi2 = FastInstance.from_weight_table(wt, ps.quotas)
        assert np.array_equal(fi.i, fi2.i) and np.array_equal(fi.j, fi2.j)
        assert np.array_equal(fi.w, fi2.w)

    def test_empty_instance(self):
        ps = PreferenceSystem({0: [], 1: []}, 1)
        fi = FastInstance.from_preference_system(ps)
        assert fi.m == 0 and fi.n == 2
        assert lic_matching_fast(fi).size() == 0


def _assert_same_matching(ps, **kwargs):
    ref = lic_matching(satisfaction_weights(ps), ps.quotas)
    fast = lic_matching_fast(ps, **kwargs)
    assert ref.edge_set() == fast.edge_set()


class TestLicMatchingFastDifferential:
    """lic_matching_fast must reproduce the reference edge set exactly.

    Together these hypothesis suites exercise well over 200 generated
    instances, covering the batched rounds, the sequential tail, and
    every forced code-path combination.
    """

    @settings(max_examples=120, deadline=None)
    @given(preference_systems(max_n=10))
    def test_differential_default(self, ps):
        _assert_same_matching(ps)

    @settings(max_examples=60, deadline=None)
    @given(preference_systems(max_n=8))
    def test_differential_pure_sequential(self, ps):
        # max_rounds=0 forces the scalar scan: baseline for the batch rule
        _assert_same_matching(ps, max_rounds=0)

    @settings(max_examples=60, deadline=None)
    @given(preference_systems(max_n=8))
    def test_differential_pure_batched(self, ps):
        # tail_threshold=0 forces batched rounds even on tiny pools
        _assert_same_matching(ps, tail_threshold=0)

    @settings(max_examples=40, deadline=None)
    @given(preference_systems(max_n=8))
    def test_differential_one_round_then_tail(self, ps):
        _assert_same_matching(ps, max_rounds=1)

    @settings(max_examples=40, deadline=None)
    @given(weighted_instances(max_n=8))
    def test_differential_weight_table(self, inst):
        wt, quotas = inst
        ref = lic_matching(wt, quotas)
        fi = FastInstance.from_weight_table(wt, quotas)
        for kwargs in ({}, {"tail_threshold": 0}):
            assert ref.edge_set() == lic_matching_fast(fi, **kwargs).edge_set()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("quota", [1, 3])
    def test_differential_medium_instances(self, seed, quota):
        ps = random_ps(120, 0.05, quota, seed=seed, ensure_edges=True)
        _assert_same_matching(ps)
        _assert_same_matching(ps, tail_threshold=0)

    def test_quota_override(self):
        ps = random_ps(30, 0.3, 3, seed=23, ensure_edges=True)
        quotas = [1] * ps.n
        ref = lic_matching(satisfaction_weights(ps), quotas)
        fast = lic_matching_fast(ps, quotas)
        assert ref.edge_set() == fast.edge_set()

    def test_respects_quotas(self):
        ps = random_ps(60, 0.2, 2, seed=29, ensure_edges=True)
        m = lic_matching_fast(ps)
        for v in range(ps.n):
            assert m.degree(v) <= ps.quotas[v]
