"""Tests for the stable-fixtures hybrid solver."""

import numpy as np
from hypothesis import given, settings

from repro.baselines.stable_fixtures import (
    phase1,
    stable_fixtures_matching,
)
from repro.baselines.verify import is_stable
from repro.core.preferences import PreferenceSystem

from repro.testing.strategies import preference_systems, random_ps


def random_bipartite(na: int, nb: int, p: float, quota, seed: int) -> PreferenceSystem:
    """Random bipartite instance; side A = ids 0..na-1."""
    rng = np.random.default_rng(seed)
    adj = {i: [] for i in range(na + nb)}
    for a in range(na):
        for b in range(na, na + nb):
            if rng.random() < p:
                adj[a].append(b)
                adj[b].append(a)
    rankings = {}
    for v in range(na + nb):
        neigh = list(adj[v])
        rng.shuffle(neigh)
        rankings[v] = neigh
    return PreferenceSystem(rankings, quota)


class TestPhase1:
    def test_mutual_tops_hold(self):
        ps = PreferenceSystem({0: [1, 2], 1: [0, 2], 2: [0, 1]}, 1)
        state = phase1(ps)
        assert (0, 1) in state.mutual

    def test_holds_respect_quota(self):
        ps = random_ps(15, 0.4, 2, seed=3, ensure_edges=True)
        state = phase1(ps)
        for j in ps.nodes():
            assert len(state.holds[j]) <= ps.quota(j)
            assert len(state.proposed_to[j]) <= ps.quota(j)

    def test_better_proposal_bounces_worst(self):
        # star: centre 2 with quota 1; leaves 0,1 both propose to 2;
        # 2 prefers 0, so 1 is bounced and exhausts its list
        ps = PreferenceSystem({0: [2], 1: [2], 2: [0, 1]}, 1)
        state = phase1(ps)
        assert state.holds[2] == {0}
        assert 1 in state.exhausted

    def test_deterministic(self):
        ps = random_ps(12, 0.5, 2, seed=7, ensure_edges=True)
        a, b = phase1(ps), phase1(ps)
        assert a.mutual == b.mutual and a.holds == b.holds


class TestHybridSolver:
    def test_certified_when_found(self):
        for seed in range(8):
            ps = random_ps(8, 0.5, 2, seed=seed, ensure_edges=True)
            res = stable_fixtures_matching(ps)
            if res.matching is not None:
                assert is_stable(ps, res.matching)
                assert res.exists is True
                assert res.method in ("phase1", "dynamics", "exhaustive")

    def test_rotating_triangle_has_none(self, triangle_ps):
        res = stable_fixtures_matching(triangle_ps)
        assert res.matching is None
        assert res.exists is False  # proven by exhaustive search

    def test_odd_complete_instance_with_a_stable_pair(self):
        # three people, one stays single: Irving's even-n rule must not
        # call this unsolvable ({(0, 1)} is stable)
        ps = PreferenceSystem({0: [1, 2], 1: [0, 2], 2: [0, 1]}, 1)
        res = stable_fixtures_matching(ps)
        assert (res.exists, res.method) == (True, "irving")
        assert res.matching.edge_set() == {(0, 1)}

    def test_trivial_instance(self):
        ps = PreferenceSystem({0: [1], 1: [0]}, 1)
        res = stable_fixtures_matching(ps)
        assert res.matching is not None
        assert res.matching.edge_set() == {(0, 1)}

    def test_bipartite_instance_has_stable_matching(self):
        """Bipartite instances always have stable matchings (deferred
        acceptance builds one); the general hybrid must find one."""
        ps = random_bipartite(5, 5, 0.5, 2, seed=3)
        res = stable_fixtures_matching(ps)
        assert res.exists is True
        assert is_stable(ps, res.matching)

    @settings(max_examples=25, deadline=None)
    @given(preference_systems(max_n=6))
    def test_answers_are_sound(self, ps):
        res = stable_fixtures_matching(ps)
        if res.matching is not None:
            assert is_stable(ps, res.matching)
        elif res.exists is False and ps.m <= 16:
            # exhaustive proof: verify a sample of matchings are blocked
            from repro.core.matching import Matching

            for edge in ps.edges():
                assert not is_stable(ps, Matching(ps.n, [edge]))
