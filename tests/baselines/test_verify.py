"""Tests for the blocking-pair / stability certifiers."""

import pytest

from repro.baselines.verify import (
    blocking_pairs,
    count_blocking_pairs,
    count_weighted_blocking_pairs,
    is_stable,
    weighted_blocking_pairs,
)
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem


class TestBlockingPairs:
    def test_empty_matching_blocked_by_every_edge(self, small_ps):
        m = Matching(5)
        assert set(blocking_pairs(small_ps, m)) == set(small_ps.edges())

    def test_triangle_no_stable_matching(self, triangle_ps):
        # every feasible 1-matching of the rotating triangle is blocked
        for edge in triangle_ps.edges():
            m = Matching(3, [edge])
            assert blocking_pairs(triangle_ps, m)

    def test_mutually_top_pair_is_stable(self):
        ps = PreferenceSystem({0: [1, 2], 1: [0, 2], 2: [0, 1]}, 1)
        m = Matching(3, [(0, 1)])  # 0 and 1 are each other's top choice
        assert is_stable(ps, m)

    def test_quota_slack_creates_block(self):
        ps = PreferenceSystem({0: [1], 1: [0, 2], 2: [1]}, {0: 1, 1: 2, 2: 1})
        m = Matching(3, [(0, 1)])
        # node 1 has spare quota and 2 is unmatched -> (1,2) blocks
        assert blocking_pairs(ps, m) == [(1, 2)]
        m.add(1, 2)
        assert is_stable(ps, m)

    def test_preference_swap_creates_block(self):
        # 1 is matched to its worst choice while its best is available
        ps = PreferenceSystem({0: [1], 1: [2, 0], 2: [1]}, 1)
        m = Matching(3, [(0, 1)])
        assert blocking_pairs(ps, m) == [(1, 2)]

    def test_count(self, small_ps):
        assert count_blocking_pairs(small_ps, Matching(5)) == small_ps.m

    def test_regression_pin_on_conformance_instance(self):
        # pins the exact output of the hoisted worst-rank implementation
        # on the conformance mutation instance: a refactor that changes
        # tie-breaks, ordering or the rank comparison fails loudly here
        from repro.core.lid import solve_lid
        from repro.testing.strategies import InstanceSpec, generate_instance

        ps = generate_instance(InstanceSpec(
            family="er", n=18, preference_model="uniform",
            quota_model="constant", quota=3, seed=0,
        ))
        empty = blocking_pairs(ps, Matching(ps.n))
        assert empty == sorted(ps.edges())
        res, wt = solve_lid(ps, backend="fast")
        assert blocking_pairs(ps, res.matching) == [
            (0, 3), (0, 6), (1, 6), (1, 17), (5, 11), (8, 14), (11, 16),
        ]
        truncated, _ = solve_lid(ps, backend="fast", max_rounds=1)
        assert count_blocking_pairs(ps, truncated.matching) == 17

    def test_matches_naive_would_accept_recomputation(self, small_ps):
        # the hoisted worst-rank scan must agree with the per-pair
        # _would_accept definition on every candidate edge
        from repro.baselines.verify import _would_accept

        for m in (
            Matching(5),
            Matching(5, [(0, 1)]),
            Matching(5, [(0, 1), (1, 3), (2, 3)]),
        ):
            naive = [
                (i, j) for i, j in small_ps.edges()
                if not m.has_edge(i, j)
                and _would_accept(small_ps, m, i, j)
                and _would_accept(small_ps, m, j, i)
            ]
            assert blocking_pairs(small_ps, m) == naive


class TestWeightedBlockingPairs:
    def test_zero_exactly_at_the_lid_fixpoint(self):
        from repro.core.lid import solve_lid
        from repro.testing.strategies import random_ps

        for seed in (0, 1, 2):
            ps = random_ps(20, 0.3, 3, seed=seed, ensure_edges=True)
            res, wt = solve_lid(ps, backend="fast")
            assert count_weighted_blocking_pairs(ps, res.matching, wt) == 0
            # ... while the rank-based notion generally is not zero:
            # LID is almost-stable, not classically stable

    def test_empty_matching_blocked_by_every_edge(self):
        from repro.core.weights import satisfaction_weights
        from repro.testing.strategies import random_ps

        ps = random_ps(12, 0.4, 2, seed=3, ensure_edges=True)
        wt = satisfaction_weights(ps)
        assert weighted_blocking_pairs(ps, Matching(ps.n), wt) == sorted(ps.edges())

    def test_mismatched_table_rejected(self):
        from repro.core.weights import satisfaction_weights
        from repro.testing.strategies import random_ps

        ps = random_ps(10, 0.4, 2, seed=0, ensure_edges=True)
        other = random_ps(11, 0.4, 2, seed=0, ensure_edges=True)
        wt = satisfaction_weights(other)
        with pytest.raises(ValueError, match="sized for"):
            weighted_blocking_pairs(ps, Matching(ps.n), wt)


class TestMatchingSize:
    """A matching over another number of nodes is refused, not scored."""

    @pytest.mark.parametrize("delta", [3, -3])
    def test_rejected_by_both_notions(self, delta):
        from repro.core.lic import lic_matching
        from repro.core.weights import satisfaction_weights
        from repro.testing.strategies import random_ps

        ps = random_ps(8, 0.6, 2, seed=3)
        wt = satisfaction_weights(ps)
        lic = lic_matching(wt, ps.quotas)
        other = Matching(ps.n + delta, lic.edges() if delta > 0 else ())
        with pytest.raises(ValueError, match=f"instance has {ps.n}"):
            blocking_pairs(ps, other)
        with pytest.raises(ValueError, match=f"weight table has {ps.n}"):
            weighted_blocking_pairs(ps, other, wt)


class TestIsStable:
    def test_infeasible_never_stable(self, small_ps):
        overfull = Matching(5, [(0, 1), (0, 2)])  # b_0 = 1
        assert not is_stable(small_ps, overfull)

    def test_stable_example(self, small_ps):
        # hand-checked stable configuration for the fixture:
        # 0-1 (mutual bests), 1-3, 2-3.  Node 2 has slack but its other
        # neighbours 0 and 1 are full with better partners; node 4's only
        # neighbour 3 is full and prefers 1,2 (ranks 0,1) to 4 (rank 2).
        m = Matching(5, [(0, 1), (1, 3), (2, 3)])
        assert is_stable(small_ps, m)
