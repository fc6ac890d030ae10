"""Tests for the reliable-channel layer and heartbeat failure detector."""

from functools import partial

import numpy as np
import pytest

from repro.distsim.failures import BernoulliLoss, CrashSchedule
from repro.distsim.network import Network
from repro.distsim.reliable import BackoffPolicy, ReliableNode
from repro.distsim.scheduler import Simulator


class TestBackoffPolicy:
    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(cap=0.5, base=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            BackoffPolicy(budget=0)

    def test_delay_grows_and_caps(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=5.0, jitter=0.0)
        delays = [policy.delay(k, None) for k in range(5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_bounded_and_seeded(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=30.0, jitter=0.1)
        rng = np.random.default_rng(0)
        d = policy.delay(0, rng)
        assert 1.0 <= d <= 1.1
        rng2 = np.random.default_rng(0)
        assert d == policy.delay(0, rng2)

    def test_fixed_reproduces_constant_timer(self):
        policy = BackoffPolicy.fixed(5.0)
        assert policy.delay(0, None) == 5.0
        assert policy.delay(7, None) == 5.0

    def test_span_bounds_total_retry_window(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=4.0, jitter=0.0, budget=4)
        # the initial send plus 4 retries wait 1 + 2 + 4 + 4 + 4
        assert policy.span() == pytest.approx(15.0)
        assert BackoffPolicy(budget=None).span() == float("inf")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "build, name",
    [
        (BackoffPolicy, "base"),
        (BackoffPolicy, "factor"),
        (BackoffPolicy, "cap"),
        (ReliableNode, "heartbeat_interval"),
        (partial(ReliableNode, heartbeat_interval=1.0), "suspect_after"),
    ],
)
def test_non_finite_timing_rejected_at_construction(build, name, value):
    # a NaN threshold never compares true and an infinite delay never
    # fires, so either would silently disable the mechanism mid-run
    with pytest.raises(ValueError, match=name):
        build(**{name: value})


class _Echo(ReliableNode):
    """Collects datagrams; optionally replies once."""

    def __init__(self, reply=False, **kw):
        super().__init__(**kw)
        self.reply = reply
        self.got = []
        self.failed = []
        self.suspects = []

    def on_datagram(self, src, kind, payload):
        self.got.append((src, kind, payload))
        if self.reply:
            self.rsend(src, "ANSWER", payload)

    def on_delivery_failed(self, dst, kind, payload):
        self.failed.append((dst, kind))

    def on_peer_suspected(self, peer):
        self.suspects.append(peer)


class _Starter(_Echo):
    """Sends a burst of datagrams to node 1 at start."""

    def __init__(self, burst=5, **kw):
        super().__init__(**kw)
        self.burst = burst

    def on_start(self):
        for k in range(self.burst):
            self.rsend(1, "DGRAM", k)


class TestReliableDelivery:
    def _run(self, loss, burst=8, budget=20):
        # base must clear the unit-latency network's RTT of 2.0
        policy = BackoffPolicy(base=3.0, factor=2.0, cap=12.0, jitter=0.1, budget=budget)
        rng = np.random.default_rng(42)
        nodes = [
            _Starter(burst=burst, backoff=policy, rng=np.random.default_rng(1)),
            _Echo(backoff=policy, rng=np.random.default_rng(2)),
        ]
        drop = BernoulliLoss(loss) if loss else None
        sim = Simulator(Network(2, drop_filter=drop, seed=7), nodes)
        sim.run()
        return nodes, sim

    def test_exactly_once_without_loss(self):
        nodes, _ = self._run(0.0)
        assert [p for (_, _, p) in nodes[1].got] == list(range(8))
        assert nodes[0].retransmissions == 0

    def test_exactly_once_under_heavy_loss(self):
        nodes, _ = self._run(0.4)
        # every datagram delivered exactly once (retransmissions may
        # reorder across sequence numbers; there is no hold-back queue)
        assert sorted(p for (_, _, p) in nodes[1].got) == list(range(8))
        assert nodes[0].retransmissions > 0
        assert not nodes[0].failed

    def test_lost_acks_cause_dup_suppression_not_redelivery(self):
        # drop only ACK traffic: data arrives, ACKs get lost, sender
        # retransmits, receiver must suppress the duplicates
        def drop_acks(msg, rng):
            return msg.kind == "ACK" and rng.random() < 0.6

        policy = BackoffPolicy(base=3.0, factor=2.0, cap=12.0, jitter=0.0, budget=20)
        nodes = [_Starter(burst=5, backoff=policy), _Echo(backoff=policy)]
        sim = Simulator(Network(2, drop_filter=drop_acks, seed=3), nodes)
        sim.run()
        assert [p for (_, _, p) in nodes[1].got] == list(range(5))
        assert nodes[1].duplicates > 0
        assert sim.metrics.duplicates_suppressed == nodes[1].duplicates
        assert sim.metrics.retransmissions == nodes[0].retransmissions > 0

    def test_budget_exhaustion_reports_failure(self):
        # node 1 crashes immediately: every datagram to it must fail
        # after exactly `budget` retransmissions, and the run quiesces
        policy = BackoffPolicy(base=3.0, factor=2.0, cap=6.0, jitter=0.0, budget=3)
        nodes = [_Starter(burst=2, backoff=policy), _Echo(backoff=policy)]
        sim = Simulator(Network(2, seed=0), nodes)
        CrashSchedule([(0.1, 1)]).install(sim)
        sim.run()
        assert [k for (_, k) in nodes[0].failed] == ["DGRAM", "DGRAM"]
        assert nodes[0].retransmissions == 2 * 3

    def test_abandon_cancels_retransmissions(self):
        class AbandonSoon(_Starter):
            def on_app_timer(self, tag):
                if tag == "give-up":
                    self.abandon(1)

            def on_start(self):
                super().on_start()
                self.set_timer(1.0, "give-up")

        policy = BackoffPolicy(base=5.0, factor=2.0, cap=20.0, jitter=0.0, budget=10)
        nodes = [AbandonSoon(burst=3, backoff=policy), _Echo(backoff=policy)]
        sim = Simulator(Network(2, seed=0), nodes)
        CrashSchedule([(0.1, 1)]).install(sim)
        sim.run()
        # abandoned before the first 5s retry fired: no retransmissions,
        # no delivery-failure reports, and the run still quiesced
        assert nodes[0].retransmissions == 0
        assert not nodes[0].failed


class TestFailureDetector:
    def _detector_nodes(self, **kw):
        policy = BackoffPolicy(base=3.0, factor=2.0, cap=6.0, jitter=0.0, budget=30)
        defaults = dict(backoff=policy, heartbeat_interval=1.0, suspect_after=4.0)
        defaults.update(kw)

        class Watcher(_Echo):
            def on_start(self):
                self.rsend(1, "DGRAM", "hello")
                self.watch(1)
                self.start_monitoring()

        class Quiet(_Echo):
            # receives but never answers; heartbeats keep it "alive"
            def on_start(self):
                self.start_monitoring()

            def heartbeat_targets(self):
                return frozenset({0}) if not self.crashed else frozenset()

            def keep_monitoring(self):
                return True

        return Watcher(**defaults), Quiet(**defaults)

    def test_silent_crashed_peer_is_suspected(self):
        a, b = self._detector_nodes()
        sim = Simulator(Network(2, seed=0), [a, b])
        CrashSchedule([(0.2, 1)]).install(sim)
        sim.run(max_time=60.0)
        assert a.suspects == [1]
        assert 1 in a.suspected

    def test_heartbeats_prevent_false_suspicion(self):
        a, b = self._detector_nodes()
        b.reply = False  # never answers the datagram, only heartbeats
        sim = Simulator(Network(2, seed=0), [a, b])
        sim.run(max_time=30.0)
        assert a.suspects == []

    def test_suspect_after_must_exceed_heartbeat_interval(self):
        with pytest.raises(ValueError, match="suspect_after"):
            ReliableNode(heartbeat_interval=2.0, suspect_after=1.0)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            ReliableNode(suspect_after=5.0)
