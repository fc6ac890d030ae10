"""Tests for the overlay -> PreferenceSystem builder and scenarios."""

import numpy as np
import pytest

from repro.overlay.builder import RankedLists, build_preference_system
from repro.overlay.metrics import (
    BandwidthMetric,
    DistanceMetric,
    MetricAssignment,
    PrivateTasteMetric,
)
from repro.overlay.peer import Peer, generate_peers
from repro.overlay.scenario import SCENARIOS, build_scenario
from repro.overlay.topology import complete_graph, random_geometric
from repro.utils.validation import InvalidInstanceError


class TestBuilder:
    def test_ranks_by_metric(self):
        peers = [
            Peer(peer_id=0, bandwidth=1.0),
            Peer(peer_id=1, bandwidth=5.0),
            Peer(peer_id=2, bandwidth=3.0),
        ]
        ps = build_preference_system(complete_graph(3), peers, BandwidthMetric())
        assert ps.preference_list(0) == (1, 2)
        assert ps.preference_list(1) == (2, 0)

    def test_tie_break_by_peer_id(self):
        peers = [Peer(peer_id=i, bandwidth=2.0) for i in range(4)]
        ps = build_preference_system(complete_graph(4), peers, BandwidthMetric())
        assert ps.preference_list(3) == (0, 1, 2)

    def test_positions_synced_from_topology(self):
        rng = np.random.default_rng(0)
        topo = random_geometric(10, 0.5, rng)
        peers = generate_peers(10, rng)
        ps = build_preference_system(topo, peers, DistanceMetric())
        for i, p in enumerate(peers):
            assert np.allclose(p.position, topo.positions[i])
        # nearest neighbour is ranked first
        for i in range(10):
            lst = ps.preference_list(i)
            if len(lst) >= 2:
                d = [np.linalg.norm(topo.positions[i] - topo.positions[j]) for j in lst]
                assert d == sorted(d)

    def test_explicit_quotas_override_peer_quota(self):
        peers = [Peer(peer_id=i, quota=5) for i in range(3)]
        ps = build_preference_system(
            complete_graph(3), peers, BandwidthMetric(), quotas=[1, 1, 1]
        )
        assert ps.quotas == (1, 1, 1)

    def test_metric_assignment_per_peer(self):
        peers = [
            Peer(peer_id=0),
            Peer(peer_id=1, bandwidth=9.0, reliability=0.1),
            Peer(peer_id=2, bandwidth=1.0, reliability=0.9),
        ]
        from repro.overlay.metrics import ReliabilityMetric

        assign = MetricAssignment(
            default=BandwidthMetric(), overrides={0: ReliabilityMetric()}
        )
        ps = build_preference_system(complete_graph(3), peers, assign)
        assert ps.preference_list(0) == (2, 1)  # by reliability
        assert ps.preference_list(2) == (1, 0)  # by bandwidth

    def test_size_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            build_preference_system(
                complete_graph(3), [Peer(peer_id=0)], BandwidthMetric()
            )

    def test_batched_ranking_equals_scalar_ranking(self):
        # a plain function hides score_batch, so it scores pair by pair
        rng = np.random.default_rng(8)
        topo = random_geometric(150, 0.2, rng)
        peers = generate_peers(150, rng)
        for k, p in enumerate(peers):
            p.peer_id = 3 * k + 1
        metric = PrivateTasteMetric(4, base=DistanceMetric(), blend=0.5)
        scalar = lambda a, b: metric(a, b)  # noqa: E731
        assert build_preference_system(topo, peers, metric) == build_preference_system(
            topo, peers, scalar
        )
        by_id = {p.peer_id: p for p in peers}
        adjacency = {
            peers[i].peer_id: {peers[j].peer_id for j in nbrs}
            for i, nbrs in enumerate(topo.adjacency)
        }
        batched, looped = RankedLists(metric, by_id), RankedLists(scalar, by_id)
        batched.rank_all(adjacency)
        looped.rank_all(adjacency)
        mover = peers[0].peer_id
        by_id[mover].position = np.array([0.5, 0.5])
        for lists in (batched, looped):
            lists.rescore(mover)
        for pid in adjacency:
            assert batched.ranked(pid) == looped.ranked(pid)
            assert batched._key[pid] == looped._key[pid]

    def test_duplicate_ids(self):
        peers = [Peer(peer_id=0), Peer(peer_id=0), Peer(peer_id=2)]
        with pytest.raises(InvalidInstanceError, match="distinct"):
            build_preference_system(complete_graph(3), peers, BandwidthMetric())


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_all_scenarios_build(self, name):
        sc = build_scenario(name, 25, seed=1)
        assert sc.ps.n == 25
        assert sc.name == name
        # reproducible
        sc2 = build_scenario(name, 25, seed=1)
        assert sc2.ps == sc.ps

    def test_different_seeds_differ(self):
        a = build_scenario("heterogeneous", 20, seed=1)
        b = build_scenario("heterogeneous", 20, seed=2)
        assert a.ps != b.ps

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("nope", 10)

    def test_heterogeneous_tends_cyclic(self):
        # private tastes should produce preference cycles at this density
        sc = build_scenario("heterogeneous", 25, seed=0)
        assert not sc.ps.is_acyclic()
