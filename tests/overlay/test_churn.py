"""Tests for dynamic overlays and exact incremental repair."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import weighted_blocking_edges
from repro.core.lic import lic_matching
from repro.core.weights import WeightTable, satisfaction_weights
from repro.overlay.churn import DynamicOverlay, WeightCache, greedy_repair
from repro.overlay.metrics import DistanceMetric
from repro.overlay.peer import Peer
from repro.overlay.scenario import build_scenario
from repro.overlay.topology import Topology


def _dyn(n=24, seed=3, metric=None):
    sc = build_scenario("geo_latency", n, seed=seed)
    return DynamicOverlay(sc.topology, sc.peers, metric or sc.metric)


def _cached_table(cache: WeightCache, ids: list[int]) -> WeightTable:
    """A weight store re-indexed to the compact instance over ``ids``."""
    index = {pid: k for k, pid in enumerate(ids)}
    return WeightTable(
        {(index[a], index[b]): w for (a, b), w in cache._w.items()}, len(ids)
    )


def _partners(n: int, edges=()) -> dict[int, set[int]]:
    """Partner sets over nodes ``0..n-1`` holding ``edges``."""
    partners: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in edges:
        partners[a].add(b)
        partners[b].add(a)
    return partners


def _edge_set(partners: dict[int, set[int]]) -> set[tuple[int, int]]:
    return {(a, b) for a, mine in partners.items() for b in mine if a < b}


def _assert_is_greedy_fixpoint(dyn: DynamicOverlay):
    ps, matching = dyn.instance()
    wt = satisfaction_weights(ps)
    full = lic_matching(wt, ps.quotas)
    assert matching.edge_set() == full.edge_set()
    assert weighted_blocking_edges(wt, list(ps.quotas), matching) == []


class TestGreedyRepair:
    def test_restores_fixpoint_from_scratch(self):
        wt = WeightTable({(0, 1): 3.0, (1, 2): 2.0, (2, 3): 2.5}, 4)
        quotas = [1, 1, 1, 1]
        partners = _partners(4)
        stats = greedy_repair(wt, quotas.__getitem__, partners, {0, 1, 2, 3})
        assert _edge_set(partners) == lic_matching(wt, quotas).edge_set()
        assert stats.resolutions == len(_edge_set(partners))

    def test_swap_cascade(self):
        # path where a leave at one end cascades swaps down the line
        wt = WeightTable(
            {(0, 1): 5.0, (1, 2): 4.0, (2, 3): 3.0, (3, 4): 2.0}, 5
        )
        partners = _partners(5, [(1, 2), (3, 4)])  # fixpoint if node 0 absent
        # node 0 appears: edge (0,1) becomes blocking
        stats = greedy_repair(wt, [1, 1, 1, 1, 1].__getitem__, partners, {0, 1})
        assert _edge_set(partners) == {(0, 1), (2, 3)}
        assert stats.resolutions == 2  # add (0,1); swap (2,3) in

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_changed_nodes_and_their_partners_seed_an_exact_repair(self, data):
        # the dirty contract: every node whose edges changed, and every
        # node matched to one, is enough to reach the new LIC matching
        n = data.draw(st.integers(2, 9), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, k in zip(pairs, keep) if k]
        m = len(edges)
        # distinct weights: ranks in one permutation, so the redrawn
        # weights interleave with the kept ones
        ranks = data.draw(st.permutations(range(2 * m)), label="ranks")
        quotas = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        changed = data.draw(st.sets(st.integers(0, n - 1)), label="changed")
        old = WeightTable({e: 1.0 + ranks[k] for k, e in enumerate(edges)}, n)
        new = WeightTable(
            {
                e: 1.0 + ranks[m + k] if changed.intersection(e) else old.weight(*e)
                for k, e in enumerate(edges)
            },
            n,
        )
        partners = _partners(n, lic_matching(old, quotas).edges())
        dirty = set(changed)
        for v in changed:
            dirty |= partners[v]
        greedy_repair(new, quotas.__getitem__, partners, dirty)
        assert _edge_set(partners) == lic_matching(new, quotas).edge_set()


class TestDynamicOverlay:
    def test_initial_state_is_fixpoint(self):
        dyn = _dyn()
        _assert_is_greedy_fixpoint(dyn)

    def test_leave_repair_equals_full_rerun(self):
        dyn = _dyn()
        rng = np.random.default_rng(0)
        for _ in range(5):
            victim = int(rng.choice(dyn.active_ids()))
            dyn.leave(victim)
            _assert_is_greedy_fixpoint(dyn)

    def test_join_repair_equals_full_rerun(self):
        dyn = _dyn()
        rng = np.random.default_rng(1)
        for k in range(4):
            ids = dyn.active_ids()
            neigh = [int(x) for x in rng.choice(ids, size=min(5, len(ids)), replace=False)]
            peer = Peer(peer_id=-1, position=rng.uniform(0, 1, 2), quota=3)
            pid, stats = dyn.join(peer, neigh)
            assert pid in dyn.active_ids()
            _assert_is_greedy_fixpoint(dyn)

    def test_mixed_churn_session(self):
        dyn = _dyn(n=20, seed=7)
        rng = np.random.default_rng(2)
        for step in range(10):
            if rng.random() < 0.5 and dyn.n > 5:
                dyn.leave(int(rng.choice(dyn.active_ids())))
            else:
                ids = dyn.active_ids()
                neigh = [int(x) for x in rng.choice(ids, size=min(4, len(ids)), replace=False)]
                dyn.join(Peer(peer_id=-1, position=rng.uniform(0, 1, 2), quota=2), neigh)
            _assert_is_greedy_fixpoint(dyn)

    def test_private_metric_survives_compaction(self):
        """A peer's preferences must not change when others leave."""
        sc = build_scenario("heterogeneous", 15, seed=4)
        dyn = DynamicOverlay(sc.topology, sc.peers, sc.metric)
        dyn.leave(dyn.active_ids()[0])
        _assert_is_greedy_fixpoint(dyn)

    def test_leave_unknown_peer(self):
        dyn = _dyn(n=10)
        with pytest.raises(KeyError):
            dyn.leave(999)

    def test_join_unknown_neighbour(self):
        dyn = _dyn(n=10)
        expected = dyn._next_id
        peer = Peer(peer_id=77, quota=2)
        with pytest.raises(KeyError, match="unknown neighbours"):
            dyn.join(peer, [999])
        # a rejected join has no side effects: the peer keeps its id and
        # the id it would have taken goes to the next successful joiner
        assert peer.peer_id == 77
        pid, _ = dyn.join(Peer(peer_id=-1, quota=2), [dyn.active_ids()[0]])
        assert pid == expected

    def test_partner_symmetry(self):
        dyn = _dyn()
        for pid in dyn.active_ids():
            for q in dyn.partners(pid):
                assert pid in dyn.partners(q)

    def test_repair_cheaper_than_scratch(self):
        """The point of A3: incremental repair does less work than
        recomputing with the same engine from scratch."""
        dyn = _dyn(n=60, seed=5)
        rng = np.random.default_rng(3)
        incremental = scratch = 0
        for _ in range(5):
            stats = dyn.leave(int(rng.choice(dyn.active_ids())))
            incremental += stats.edges_scanned
            # same engine, empty start, everything dirty
            ps, _ = dyn.instance()
            wt = satisfaction_weights(ps)
            from_scratch = greedy_repair(
                wt, list(ps.quotas).__getitem__, _partners(ps.n), set(range(ps.n))
            )
            scratch += from_scratch.edges_scanned
        assert incremental < scratch

    def test_total_satisfaction_positive(self):
        dyn = _dyn()
        assert dyn.total_satisfaction() > 0


class TestFastBackend:
    """The persistent instance's weight cache under churn."""

    def test_fast_stays_greedy_fixpoint(self):
        dyn = _dyn(n=20, seed=7)
        rng = np.random.default_rng(13)
        for _ in range(6):
            if rng.random() < 0.5 and dyn.n > 6:
                dyn.leave(int(rng.choice(dyn.active_ids())))
            else:
                ids = dyn.active_ids()
                neigh = [int(x) for x in
                         rng.choice(ids, size=min(3, len(ids)), replace=False)]
                dyn.join(Peer(peer_id=-1, position=rng.uniform(0, 1, 2), quota=2),
                         neigh)
            _assert_is_greedy_fixpoint(dyn)

    def test_cache_stats_reported(self):
        dyn = _dyn(n=30, seed=5)
        rng = np.random.default_rng(17)
        stats = dyn.leave(int(rng.choice(dyn.active_ids())))
        assert stats.weights_reused > 0  # most edges untouched by one leave
        assert stats.weights_reused + stats.weights_recomputed == dyn.instance()[0].m

    def test_cache_refresh_matches_reference_weights(self):
        """After any churn the cached table must equal a fresh eq.-9 build."""
        dyn = _dyn(n=25, seed=9)
        rng = np.random.default_rng(19)
        for _ in range(4):
            dyn.leave(int(rng.choice(dyn.active_ids())))
        ps, _ = dyn.instance()
        cached_wt = _cached_table(dyn._wcache, dyn.active_ids())
        fresh = satisfaction_weights(ps)
        for i, j in ps.edges():
            assert cached_wt.weight(i, j) == fresh.weight(i, j)  # bit-identical


class TestWeightCache:
    @staticmethod
    def _lists():
        dyn = _dyn(n=15, seed=2)  # a ranked-list supplier
        ps, ids, _ = dyn._compact_instance()
        return dyn._lists, ps, ids

    def test_cold_refresh_fills_cache(self):
        lists, ps, ids = self._lists()
        cache = WeightCache(lists)
        reused, recomputed = cache.refresh(set())
        assert reused == 0 and recomputed == len(cache) == ps.m
        wt = _cached_table(cache, ids)
        fresh = satisfaction_weights(ps)
        for i, j in ps.edges():
            assert wt.weight(i, j) == fresh.weight(i, j)

    def test_warm_refresh_reuses_clean_entries(self):
        lists, ps, ids = self._lists()
        cache = WeightCache(lists)
        cache.refresh(set())
        reused, recomputed = cache.refresh(set())
        assert recomputed == 0 and reused == ps.m
        assert len(cache) == ps.m

    def test_dirty_nodes_force_recompute(self):
        lists, ps, ids = self._lists()
        cache = WeightCache(lists)
        cache.refresh(set())
        dirty_peer = ids[0]
        reused, recomputed = cache.refresh({dirty_peer})
        touched = sum(1 for i, j in ps.edges() if 0 in (i, j))
        assert recomputed == touched and reused == ps.m - touched

    def test_clear(self):
        cache = WeightCache(self._lists()[0])
        assert len(cache) == 0
        cache.clear()
        assert len(cache) == 0


class TestGreedyRepairHardening:
    """Corrupt partners and degenerate inputs."""

    def _chain(self):
        # 0-1-2-3 path, strictly decreasing weights
        wt = WeightTable({(0, 1): 5.0, (1, 2): 4.0, (2, 3): 3.0}, 4)
        return wt, [1, 1, 1, 1]

    @pytest.mark.parametrize("stranger", [2, 3, 10**6])
    def test_partner_without_an_edge_is_invalid(self, stranger):
        # node 0 is at quota with a partner the table has no edge to (a
        # non-neighbour, or an id no node holds): corrupt input, reported
        # as such instead of as a bare KeyError from the weight lookup
        from repro.utils.validation import InvalidMatchingError

        wt, quotas = self._chain()
        partners = _partners(4)
        partners[0].add(stranger)
        with pytest.raises(InvalidMatchingError, match="peer 0 is matched across a non-edge"):
            greedy_repair(wt, quotas.__getitem__, partners, {0})

    @pytest.mark.parametrize("missing", [0, 1, 2])
    def test_node_without_a_partner_set_is_invalid(self, missing):
        # repairing from 0 scans 0, weighs its neighbour 1 and takes edge
        # 0-1, so 1 drops its partner 2: whichever of them holds no
        # partner set is corrupt input, reported instead of a bare KeyError
        from repro.utils.validation import InvalidMatchingError

        wt, quotas = self._chain()
        partners = _partners(4, [(1, 2)])
        del partners[missing]
        with pytest.raises(InvalidMatchingError, match=f"peer {missing} holds no partner set"):
            greedy_repair(wt, quotas.__getitem__, partners, {0})

    def test_edgeless_instance_returns_clean_stats(self):
        # a fully-departed neighbourhood: nodes remain but no edges do
        stats = greedy_repair(
            WeightTable({}, 4), [1, 1, 1, 1].__getitem__, _partners(4), {0, 1, 2, 3}
        )
        assert stats.resolutions == 0


def _hand_overlay() -> DynamicOverlay:
    """Triangle 0-1-2 with 3 hanging off 2, quota 2, matched 0-1 and 2-3."""
    topology = Topology([[1, 2], [0, 2], [0, 1, 3], [2]], None, "hand")
    peers = [Peer(peer_id=k, position=(0.1 * k, 0.0), quota=2) for k in range(4)]
    dyn = DynamicOverlay(topology, peers, DistanceMetric())
    dyn._partners = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
    return dyn


def _breach(partners: dict[int, set[int]], kind: str) -> None:
    """Plant one breach of the partner-set rule in ``_hand_overlay``."""
    if kind == "departed-holder":
        partners[9] = {0}
    elif kind == "no-set":
        del partners[3]
    elif kind == "over-quota":
        partners[2] |= {0, 1}
        partners[0].add(2)
        partners[1].add(2)
    elif kind == "departed-partner":
        partners[0].add(9)
    elif kind == "non-neighbour":
        partners[1].add(3)
        partners[3].add(1)
    else:
        partners[0].add(2)  # asymmetric


#: each breach, the peer whose set shows it, and the one message for it
BREACHES = [
    ("departed-holder", 9, "liveness: departed peer 9 still holds partners"),
    ("no-set", 3, "liveness: live peer 3 holds no partner set"),
    ("over-quota", 2, "capacity: peer 2 holds 3 partners (quota 2)"),
    ("departed-partner", 0, "liveness: peer 0 matched to departed peer 9"),
    ("non-neighbour", 1, "mutual consent: peer 1 matched to non-neighbour 3"),
    ("asymmetric", 0, "mutual consent: 0 ~ 2 is asymmetric"),
]


class TestPartnerViolations:
    """The one partner-set rule the repair and the service guard run."""

    def test_clean_overlay(self):
        dyn = _hand_overlay()
        assert dyn.partner_violations(range(4)) == []
        # an id that is neither live nor matched breaks nothing
        assert dyn.partner_violations([9]) == []

    @pytest.mark.parametrize("kind, pid, message", BREACHES, ids=[b[0] for b in BREACHES])
    def test_one_message_per_breach(self, kind, pid, message):
        dyn = _hand_overlay()
        _breach(dyn._partners, kind)
        assert dyn.partner_violations([pid]) == [message]
        everyone = dyn._peers.keys() | dyn._partners.keys()
        assert message in dyn.partner_violations(everyone)


class TestOverlayChurnEdgeCases:
    """Leave/join edge cases the long-lived service depends on."""

    def test_drain_overlay_to_empty(self):
        dyn = _dyn(n=8, seed=5)
        for pid in list(dyn.active_ids()):
            stats = dyn.leave(pid)
            assert stats.resolutions >= 0  # well-formed, never raises
        assert dyn.n == 0
        assert dyn.active_ids() == []

    def test_join_into_empty_overlay(self):
        dyn = _dyn(n=4, seed=5)
        for pid in list(dyn.active_ids()):
            dyn.leave(pid)
        pid, stats = dyn.join(Peer(peer_id=-1, position=(0.5, 0.5)), [])
        assert dyn.n == 1
        assert dyn.partners(pid) == frozenset()
        assert stats.resolutions == 0

    def test_rebuild_after_drain_reaches_fixpoint(self):
        dyn = _dyn(n=6, seed=7)
        for pid in list(dyn.active_ids()):
            dyn.leave(pid)
        first, _ = dyn.join(Peer(peer_id=-1, position=(0.2, 0.2)), [])
        ids = [first]
        rng = np.random.default_rng(0)
        for k in range(5):
            neigh = [int(rng.choice(ids))]
            pid, _ = dyn.join(
                Peer(peer_id=-1, position=tuple(rng.uniform(0, 1, 2))), neigh
            )
            ids.append(pid)
        _assert_is_greedy_fixpoint(dyn)
