"""Interleaved join/leave storms against the dynamic layers.

Two storm subjects, one property each:

- :class:`DynamicLidHarness` — after every burst the distributed
  protocol must still quiesce to the centralised LIC matching of the
  surviving overlay (checked differentially every 10th event and at the
  end of the session);
- :class:`DynamicOverlay` — the :class:`WeightCache` must keep
  *reusing* eq.-9 weights across storm events (the whole point of
  incremental repair), while the maintained matching stays equal to a
  from-scratch solve.
"""

import numpy as np
import pytest

from repro.core.analysis import weighted_blocking_edges
from repro.core.dynamic_lid import DynamicLidHarness
from repro.core.lic import lic_matching
from repro.core.weights import WeightTable, satisfaction_weights
from repro.overlay.peer import Peer
from repro.overlay.scenario import build_scenario


def _random_pref_orders(n, p, rng):
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].append(j)
                adj[j].append(i)
    orders = []
    for i in range(n):
        neigh = list(adj[i])
        rng.shuffle(neigh)
        orders.append(neigh)
    return orders


def _reference_matching(harness: DynamicLidHarness):
    """Centralised LIC over the harness's surviving overlay."""
    nodes = harness.nodes
    weights = {}
    for i in sorted(harness.alive):
        for j in nodes[i].pref_order:
            if i < j and j in harness.alive:
                weights[(i, j)] = nodes[i].my_delta(j) + nodes[j].my_delta(i)
    wt = WeightTable(weights, len(nodes))
    quotas = [
        nodes[k].quota if k in harness.alive else 0 for k in range(len(nodes))
    ]
    return lic_matching(wt, quotas)


def _assert_harness_at_fixpoint(harness):
    assert harness.half_locks() == []
    assert (
        harness.matching().edge_set() == _reference_matching(harness).edge_set()
    )


class TestHarnessStorms:
    @pytest.mark.parametrize("seed", range(3))
    def test_alternating_storms_requiesce(self, seed):
        rng = np.random.default_rng(300 + seed)
        orders = _random_pref_orders(14, 0.45, rng)
        h = DynamicLidHarness(orders, [2] * 14, seed=seed)
        h.run_to_quiescence()
        _assert_harness_at_fixpoint(h)
        events = 0
        for storm in range(6):
            joining = storm % 2 == 0
            for _ in range(4):
                alive = sorted(h.alive)
                if joining or len(alive) <= 4:
                    k = min(int(rng.integers(2, 5)), len(alive))
                    neigh = [
                        int(x) for x in rng.choice(alive, size=k, replace=False)
                    ]
                    positions = {
                        j: int(rng.integers(0, len(h.nodes[j].pref_order) + 1))
                        for j in neigh
                    }
                    h.join(neigh, quota=2, positions=positions)
                else:
                    h.leave(int(rng.choice(alive)))
                events += 1
                # the protocol itself must quiesce every event; the
                # differential against centralised LIC samples every 10th
                assert h.half_locks() == []
                if events % 10 == 0:
                    _assert_harness_at_fixpoint(h)
        _assert_harness_at_fixpoint(h)


def _assert_overlay_at_fixpoint(dyn):
    ps, matching = dyn.instance()
    wt = satisfaction_weights(ps)
    full = lic_matching(wt, ps.quotas)
    assert matching.edge_set() == full.edge_set()
    assert weighted_blocking_edges(wt, list(ps.quotas), matching) == []


class TestOverlayCacheStorms:
    def test_storm_session_reuses_cached_weights(self):
        sc = build_scenario("geo_latency", 40, seed=11)
        from repro.overlay.churn import DynamicOverlay

        dyn = DynamicOverlay(sc.topology, sc.peers, sc.metric)
        rng = np.random.default_rng(11)
        reused = recomputed = events = 0
        for storm in range(8):
            joining = storm % 2 == 0
            for _ in range(4):
                if joining or dyn.n <= 8:
                    ids = dyn.active_ids()
                    k = min(4, len(ids))
                    neigh = [
                        int(x) for x in rng.choice(ids, size=k, replace=False)
                    ]
                    peer = Peer(
                        peer_id=-1, position=rng.uniform(0, 1, 2), quota=2
                    )
                    _, stats = dyn.join(peer, neigh)
                else:
                    stats = dyn.leave(int(rng.choice(dyn.active_ids())))
                reused += stats.weights_reused
                recomputed += stats.weights_recomputed
                events += 1
                if events % 10 == 0:
                    _assert_overlay_at_fixpoint(dyn)
        _assert_overlay_at_fixpoint(dyn)
        # the cache must be doing real work under storms: a clear
        # majority of eq.-9 weights served without recomputation
        assert reused + recomputed > 0
        frac = reused / (reused + recomputed)
        assert frac >= 0.4, f"cache reuse fraction {frac:.2f} below 0.4"
