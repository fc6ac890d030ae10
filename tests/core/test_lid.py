"""Unit and property tests for LID (Algorithm 1) on the simulator."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from repro.core.lic import lic_matching
from repro.core.lid import LidNode, mutual_locks, run_lid, solve_lid
from repro.core.weights import WeightTable, satisfaction_weights
from repro.distsim import (
    BernoulliLoss,
    ExponentialLatency,
    Trace,
    UniformLatency,
)

from repro.testing.strategies import preference_systems, random_ps, weighted_instances


class TestBasicRuns:
    def test_two_nodes_lock(self):
        wt = WeightTable({(0, 1): 1.0}, 2)
        res = run_lid(wt, [1, 1])
        assert res.matching.edge_set() == {(0, 1)}
        assert res.prop_messages == 2  # one PROP each way
        assert res.rej_messages == 0

    def test_path_rejection_flow(self):
        # 0-1 heavy, 1-2 light, quotas 1: node 2's proposal must be rejected
        wt = WeightTable({(0, 1): 3.0, (1, 2): 2.0}, 3)
        res = run_lid(wt, [1, 1, 1])
        assert res.matching.edge_set() == {(0, 1)}
        assert res.rej_messages >= 1
        node2 = res.nodes[2]
        assert node2.finished and not node2.locked

    def test_isolated_node_finishes(self):
        wt = WeightTable({(0, 1): 1.0}, 3)
        res = run_lid(wt, [1, 1, 1])
        assert res.nodes[2].finished
        assert res.matching.degree(2) == 0

    def test_quota_zero_node(self):
        wt = WeightTable({(0, 1): 1.0, (1, 2): 2.0}, 3)
        res = run_lid(wt, [0, 1, 1])
        assert res.matching.edge_set() == {(1, 2)}
        assert res.nodes[0].finished

    def test_quota_exceeding_degree(self):
        wt = WeightTable({(0, 1): 1.0}, 2)
        res = run_lid(wt, [5, 5])
        assert res.matching.edge_set() == {(0, 1)}


class TestEquivalenceWithLIC:
    @settings(max_examples=40, deadline=None)
    @given(weighted_instances())
    def test_same_edges_sync(self, inst):
        """Lemmas 4 & 6: LID locks exactly the LIC edge set."""
        wt, quotas = inst
        lic = lic_matching(wt, quotas).edge_set()
        lid = run_lid(wt, quotas).matching.edge_set()
        assert lid == lic

    @settings(max_examples=25, deadline=None)
    @given(weighted_instances())
    def test_same_edges_async_nonfifo(self, inst):
        """Schedule independence: any latency model yields the same matching."""
        wt, quotas = inst
        lic = lic_matching(wt, quotas).edge_set()
        for seed, latency in enumerate(
            (UniformLatency(0.1, 5.0), ExponentialLatency(2.0))
        ):
            res = run_lid(wt, quotas, latency=latency, fifo=False, seed=seed)
            assert res.matching.edge_set() == lic

    def test_larger_random_instance(self):
        ps = random_ps(60, 0.15, 3, seed=11)
        res, wt = solve_lid(ps)
        lic = lic_matching(wt, ps.quotas)
        assert res.matching.edge_set() == lic.edge_set()


class TestMessageBounds:
    @settings(max_examples=30, deadline=None)
    @given(weighted_instances())
    def test_prop_and_rej_bounds(self, inst):
        """Without retransmission: ≤1 PROP and ≤1 REJ per directed edge."""
        wt, quotas = inst
        res = run_lid(wt, quotas)
        assert res.prop_messages <= 2 * wt.m
        assert res.rej_messages <= 2 * wt.m
        for i, node in enumerate(res.nodes):
            deg = len(wt.neighbors(i))
            assert node.props_sent <= deg
            assert node.rejs_sent <= deg

    def test_props_in_decreasing_weight_order(self):
        """The weight-list discipline: PROPs leave each node heaviest-first."""
        ps = random_ps(20, 0.3, 2, seed=5)
        wt = satisfaction_weights(ps)
        trace = Trace()
        run_lid(wt, ps.quotas, trace=trace)
        for i in range(ps.n):
            targets = [r.peer for r in trace.sends_from(i, kind="PROP")]
            keys = [wt.key(i, t) for t in targets]
            assert keys == sorted(keys, reverse=True)


class TestTermination:
    @settings(max_examples=30, deadline=None)
    @given(preference_systems())
    def test_all_nodes_finish(self, ps):
        """Lemma 5: LID terminates for every node."""
        res, _ = solve_lid(ps)
        assert all(node.finished for node in res.nodes)

    def test_cyclic_preferences_still_terminate(self, triangle_ps):
        """The instance where best-response oscillates: LID still halts."""
        res, _ = solve_lid(triangle_ps)
        assert all(node.finished for node in res.nodes)
        assert res.matching.size() == 1  # one pair locks, one node left out


class TestRobustnessExtension:
    def test_loss_without_retransmit_may_stall_quietly(self):
        """Faithful LID assumes reliable channels; with loss, nodes can
        wait forever.  The simulator then quiesces with unfinished nodes
        and run_lid surfaces that as a ProtocolError."""
        ps = random_ps(20, 0.3, 2, seed=7)
        wt = satisfaction_weights(ps)
        from repro.utils.validation import ProtocolError

        stalled = 0
        for seed in range(6):
            try:
                run_lid(wt, ps.quotas, drop_filter=BernoulliLoss(0.3), seed=seed)
            except ProtocolError:
                stalled += 1
        assert stalled > 0  # 30% loss on 100+ messages stalls w.h.p.

    def test_retransmission_restores_termination(self):
        ps = random_ps(20, 0.3, 2, seed=7)
        wt = satisfaction_weights(ps)
        for seed in range(4):
            res = run_lid(
                wt,
                ps.quotas,
                drop_filter=BernoulliLoss(0.3),
                retransmit_timeout=3.0,
                seed=seed,
            )
            assert all(node.finished for node in res.nodes)
            res.matching.validate(ps)

    def test_retransmission_preserves_matching_without_loss(self):
        ps = random_ps(15, 0.3, 2, seed=9)
        wt = satisfaction_weights(ps)
        plain = run_lid(wt, ps.quotas).matching.edge_set()
        resil = run_lid(wt, ps.quotas, retransmit_timeout=3.0).matching.edge_set()
        assert plain == resil


class TestValidationAndErrors:
    def test_quota_mismatch(self):
        wt = WeightTable({(0, 1): 1.0}, 2)
        with pytest.raises(ValueError, match="quotas length"):
            run_lid(wt, [1])

    def test_result_accessors(self):
        wt = WeightTable({(0, 1): 1.0}, 2)
        res = run_lid(wt, [1, 1])
        assert res.rounds >= 1.0
        assert res.metrics.total_sent == res.prop_messages + res.rej_messages

    def test_node_repr_state(self):
        node = LidNode([1, 2], 1)
        assert node.quota == 1 and node.weight_list == [1, 2]
        assert not node.finished


class TestRetransmissionPaths:
    """The retry/duplicate-PROP machinery and timer lifecycle."""

    def _two_nodes(self, **kw):
        wt = WeightTable({(0, 1): 1.0}, 2)
        return wt

    def test_retry_duplicate_prop_to_locked_partner_is_answered(self):
        # drop node 0's first PROP: node 1 locks on its own PROP + the
        # retransmitted one, while node 0's timer keeps firing until the
        # re-confirmation arrives.  The `payload == "retry"` path must
        # re-send the lock confirmation instead of flagging an anomaly.
        wt = self._two_nodes()
        first = {"dropped": False}

        def drop_first_prop(msg, rng):
            if msg.src == 0 and msg.kind == "PROP" and not first["dropped"]:
                first["dropped"] = True
                return True
            return False

        res = run_lid(
            wt, [1, 1], drop_filter=drop_first_prop, retransmit_timeout=3.0,
            seed=0,
        )
        assert res.matching.edge_set() == {(0, 1)}
        assert all(n.finished for n in res.nodes)
        assert res.nodes[0].retransmits_sent >= 1
        assert res.nodes[1].anomalies == 0

    def test_retransmits_counted_separately_from_fresh_props(self):
        ps = random_ps(15, 0.3, 2, seed=9)
        wt = satisfaction_weights(ps)
        clean = run_lid(wt, ps.quotas, seed=1)
        lossy = run_lid(
            wt, ps.quotas, drop_filter=BernoulliLoss(0.3),
            retransmit_timeout=3.0, seed=1,
        )
        # fresh proposals stay within the Lemma 5 per-neighbour-once
        # bound no matter how many retries fire: retries are counted in
        # retransmits_sent / metrics.retransmissions, never props_sent
        m = len(list(wt.edges()))
        assert sum(n.props_sent for n in lossy.nodes) <= 2 * m
        assert lossy.metrics.retransmissions == sum(
            n.retransmits_sent for n in lossy.nodes
        )
        assert lossy.metrics.retransmissions > 0
        assert clean.metrics.retransmissions == 0
        # loss may reorder rejections, but never inflates fresh PROPs
        # beyond a node's neighbourhood
        for i, node in enumerate(lossy.nodes):
            assert node.props_sent <= len(wt.neighbors(i))

    def test_stale_timer_after_resolution_sends_nothing(self):
        # a retransmit timer that fires after its proposal was answered
        # must be a no-op (logical cancellation)
        wt = WeightTable({(0, 1): 3.0, (1, 2): 2.0}, 3)
        res = run_lid(wt, [1, 1, 1], retransmit_timeout=50.0, seed=0)
        # everything resolves within a few time units; the 50s timers
        # fire long after and must not retransmit
        assert res.metrics.retransmissions == 0
        assert all(n.finished for n in res.nodes)
        assert res.nodes[2].retransmits_sent == 0

    def test_finished_node_ignores_timers(self):
        wt = WeightTable({(0, 1): 1.0}, 2)
        res = run_lid(wt, [1, 1], retransmit_timeout=40.0, seed=0)
        assert res.metrics.retransmissions == 0


class TestBackoff:
    def test_exponential_backoff_spaces_out_retries(self):
        # against a crashed-like silent peer the fixed timer fires ~t/T
        # times; exponential backoff must fire far fewer
        ps = random_ps(20, 0.3, 2, seed=7)
        wt = satisfaction_weights(ps)
        fixed = run_lid(
            wt, ps.quotas, drop_filter=BernoulliLoss(0.3),
            retransmit_timeout=3.0, backoff="none", seed=2,
        )
        expo = run_lid(
            wt, ps.quotas, drop_filter=BernoulliLoss(0.3),
            retransmit_timeout=3.0, backoff="exponential", seed=2,
        )
        assert all(n.finished for n in fixed.nodes)
        assert all(n.finished for n in expo.nodes)
        assert fixed.matching.edge_set() == expo.matching.edge_set()

    def test_backoff_none_reproduces_fixed_timer(self):
        node = LidNode([1], 1, retransmit_timeout=5.0, backoff="none")
        node._attempts[1] = 7
        assert node._retx_delay(1) == 5.0

    def test_backoff_delay_doubles_and_caps(self):
        node = LidNode([1], 1, retransmit_timeout=2.0, backoff="exponential",
                       backoff_cap=8.0)
        delays = []
        for k in range(5):
            node._attempts[1] = k
            delays.append(node._retx_delay(1))
        assert delays == [2.0, 4.0, 8.0, 8.0, 8.0]

    def test_validates_backoff_args(self):
        with pytest.raises(ValueError, match="backoff"):
            LidNode([1], 1, retransmit_timeout=5.0, backoff="bogus")
        with pytest.raises(ValueError, match="backoff_cap"):
            LidNode([1], 1, retransmit_timeout=5.0, backoff_cap=1.0)

    @pytest.mark.parametrize("backoff", ["none", "exponential"])
    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0])
    def test_rejects_unusable_retransmit_timeout(self, timeout, backoff):
        # refused while the nodes are built, not when the first retry
        # timer reaches the scheduler
        wt = WeightTable({(0, 1): 1.0}, 2)
        with pytest.raises(ValueError, match="base"):
            run_lid(wt, [1, 1], retransmit_timeout=timeout, backoff=backoff)


class TestMutualLocks:
    def test_members_range_and_order(self):
        locks = [{1}, {0}, {7}, {0, 4}, {3}]
        nodes = [SimpleNamespace(locked=held) for held in locks]
        matching, one_sided = mutual_locks(nodes, members={0, 1, 2, 3})
        # 3's lock on non-member 4 is ignored; the out-of-range partner
        # 7 and the unreturned lock 3 -> 0 are one-sided, in node order
        assert matching.edge_set() == {(0, 1)}
        assert one_sided == [(2, 7), (3, 0)]
        matching, one_sided = mutual_locks(nodes)
        assert matching.edge_set() == {(0, 1), (3, 4)}
        assert one_sided == [(2, 7), (3, 0)]


class TestSolveLidFaultParams:
    def test_fast_backend_rejects_fault_runs(self):
        ps = random_ps(12, 0.4, 2, seed=3, ensure_edges=True)
        with pytest.raises(ValueError, match="backend='reference'"):
            solve_lid(ps, backend="fast", drop_filter=BernoulliLoss(0.1))
        with pytest.raises(ValueError, match="one-round delivery"):
            solve_lid(ps, backend="fast", retransmit_timeout=3.0)

    def test_reference_fallback_runs_fault_injection_end_to_end(self):
        ps = random_ps(12, 0.4, 2, seed=3, ensure_edges=True)
        result, wt = solve_lid(
            ps, backend="reference", drop_filter=BernoulliLoss(0.2),
            retransmit_timeout=3.0, seed=5,
        )
        assert all(n.finished for n in result.nodes)
        result.matching.validate(ps)
        # and the matching equals the loss-free one (unique greedy fixpoint)
        clean, _ = solve_lid(ps, backend="reference", seed=5)
        assert result.matching.edge_set() == clean.matching.edge_set()
