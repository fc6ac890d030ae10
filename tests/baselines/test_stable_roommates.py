"""Tests for Irving's stable roommates algorithm (exact 1-1 solver).

Cross-validated against exhaustive search on random complete and
incomplete instances, plus the classic textbook instances.
"""

from itertools import combinations, permutations, product

import numpy as np
import pytest

from repro.baselines.stable_roommates import stable_roommates
from repro.baselines.verify import is_stable
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem

from repro.testing.strategies import random_ps


def exhaustive_stable_exists(ps: PreferenceSystem):
    """Ground truth: search all 1-1 matchings for a stable one."""
    edges = list(ps.edges())
    for r in range(len(edges), -1, -1):
        for subset in combinations(edges, r):
            used = set()
            ok = True
            for i, j in subset:
                if i in used or j in used:
                    ok = False
                    break
                used.add(i)
                used.add(j)
            if ok:
                m = Matching(ps.n, subset)
                if is_stable(ps, m):
                    return m
    return None


def complete_instance(n: int, seed: int) -> PreferenceSystem:
    rng = np.random.default_rng(seed)
    rankings = {}
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rng.shuffle(others)
        rankings[i] = others
    return PreferenceSystem(rankings, 1)


class TestClassicInstances:
    def test_irving_no_stable_4(self):
        """The classic 4-person instance with no stable matching.

        0: 1 2 3 / 1: 2 0 3 / 2: 0 1 3 / 3: arbitrary — 3 is everyone's
        last choice and 0,1,2 form a rotating cycle.
        """
        ps = PreferenceSystem(
            {0: [1, 2, 3], 1: [2, 0, 3], 2: [0, 1, 3], 3: [0, 1, 2]}, 1
        )
        res = stable_roommates(ps)
        assert res.certain and res.exists is False
        assert exhaustive_stable_exists(ps) is None

    def test_solvable_4(self):
        ps = PreferenceSystem(
            {0: [1, 2, 3], 1: [0, 2, 3], 2: [3, 0, 1], 3: [2, 0, 1]}, 1
        )
        res = stable_roommates(ps)
        assert res.certain and res.exists
        assert is_stable(ps, res.matching)
        assert res.matching.edge_set() == {(0, 1), (2, 3)}

    def test_irving_6_person(self):
        """Irving's 6-person example (solvable; 1-indexed in the paper)."""
        prefs = {
            0: [3, 5, 1, 4, 2],
            1: [5, 2, 3, 0, 4],
            2: [1, 4, 0, 5, 3],
            3: [4, 2, 5, 0, 1],
            4: [2, 3, 1, 0, 5],
            5: [4, 0, 2, 3, 1],
        }
        ps = PreferenceSystem(prefs, 1)
        res = stable_roommates(ps)
        assert res.certain
        assert (res.exists is True) == (exhaustive_stable_exists(ps) is not None)
        if res.matching is not None:
            assert is_stable(ps, res.matching)

    def test_odd_complete_triangles(self):
        """All 8 triangle profiles: an odd complete instance is decided
        only by a certified matching.

        With three people one always stays single, so a list emptied in
        phase 1 proves nothing; the two rotating profiles (each prefers
        the next) have no stable matching, the other six have one.
        """
        others = [[j for j in range(3) if j != i] for i in range(3)]
        for lists in product(*map(permutations, others)):
            ps = PreferenceSystem(dict(enumerate(map(list, lists))), 1)
            res = stable_roommates(ps)
            assert res.certain == (exhaustive_stable_exists(ps) is not None)
            if res.certain:
                assert res.exists is True and is_stable(ps, res.matching)

    def test_two_people(self):
        ps = PreferenceSystem({0: [1], 1: [0]}, 1)
        res = stable_roommates(ps)
        assert res.matching.edge_set() == {(0, 1)}

    def test_rejects_nonunit_quota(self):
        ps = PreferenceSystem({0: [1, 2], 1: [0, 2], 2: [0, 1]}, 2)
        with pytest.raises(ValueError, match="unit quotas"):
            stable_roommates(ps)


class TestAgainstExhaustive:
    @pytest.mark.parametrize("seed", range(20))
    def test_complete_even_instances(self, seed):
        """On complete even instances the solver must decide, correctly."""
        ps = complete_instance(6, seed)
        res = stable_roommates(ps)
        truth = exhaustive_stable_exists(ps)
        assert res.certain, "complete case must never abstain"
        assert res.exists == (truth is not None)
        if res.matching is not None:
            assert is_stable(ps, res.matching)
            # complete even solvable instances: everyone matched
            assert res.matching.size() == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_incomplete_instances_sound(self, seed):
        """On SRI instances: certified answers must match ground truth."""
        ps = random_ps(7, 0.6, 1, seed=seed, ensure_edges=True)
        res = stable_roommates(ps)
        if not res.certain:
            return  # abstention is allowed for SRI
        truth = exhaustive_stable_exists(ps)
        if res.exists:
            assert is_stable(ps, res.matching)
            assert truth is not None
        else:
            assert truth is None

    def test_abstention_rate_is_low(self):
        """The solver should decide the vast majority of SRI instances."""
        decided = 0
        total = 30
        for seed in range(total):
            ps = random_ps(8, 0.5, 1, seed=100 + seed, ensure_edges=True)
            if stable_roommates(ps).certain:
                decided += 1
        assert decided >= total * 0.6
