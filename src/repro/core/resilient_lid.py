"""Resilient LID: Algorithm 1 on reliable channels with failure detection.

The paper's §7 asks how the greedy strategy copes with unreliable and
adversarial conditions.  :class:`~repro.core.lid.LidNode` answers the
narrow question (i.i.d. loss) with a timer-retransmission wrapper; this
module answers the broad one.  :class:`ResilientLidNode` runs the same
greedy protocol on top of :class:`~repro.distsim.reliable.ReliableNode`
— per-link sequence numbers, ACKs, capped exponential backoff with
seeded jitter, duplicate suppression — and adds a heartbeat failure
detector so the protocol survives **crashes and partitions**, not just
loss:

- every *pending* peer (an outstanding, unanswered proposal) is
  *watched*; a peer silent beyond ``suspect_after`` is **suspected**:
  the proposal is released as if rejected, the peer is *withdrawn*
  (never re-proposed), and the node re-proposes down its weight list —
  exactly the recovery the issue's termination argument needs, because
  an unanswered proposal is the only thing that blocks a LID node;
- a suspected peer may in fact be alive behind a partition and may
  have locked the edge from the crossing proposal, so suspicion also
  sends a reliable **revocation** (a ``REJ`` to the suspected peer): a
  node receiving ``REJ`` from a locked partner releases the lock,
  withdraws the partner and re-proposes.  Symmetry of the lock relation
  over live honest nodes is thereby restored as soon as the partition
  heals within the retransmit budget's window
  (:meth:`~repro.distsim.reliable.BackoffPolicy.span`);
- while a node deliberates it heartbeats the peers awaiting its
  decision (its unanswered approachers), so a slow-but-live node is
  not mistaken for a dead one.

Guarantees (made precise in ``docs/robustness.md``, enforced per-run by
:class:`~repro.distsim.invariants.InvariantMonitor` and swept by the
fault campaign):

- *safety*, unconditionally: quota is never exceeded, locks stay on
  overlay links, no pair locks twice, and the extracted matching
  (mutual locks over live nodes) is feasible;
- *termination*, whenever every fault eventually manifests as silence
  (crash), a heal, or delivery within the budget: every live honest
  node finishes;
- *optimality on the clean part*: restricted to live honest nodes
  whose neighbourhood was untouched by faults, the matching has no
  weighted blocking edge — faults only degrade the nodes they touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.lid import PROP, REJ, LidProtocol, mutual_locks
from repro.core.matching import Matching
from repro.core.truncation import TruncationReport, round_horizon, validate_max_rounds
from repro.distsim.failures import (
    CrashSchedule,
    LinkFlap,
    PartitionSchedule,
    compose_drops,
)
from repro.distsim.invariants import InvariantMonitor
from repro.distsim.metrics import SimMetrics
from repro.distsim.network import LatencyModel, Network
from repro.distsim.reliable import BackoffPolicy, ReliableNode
from repro.distsim.scheduler import Simulator
from repro.distsim.tracing import Trace
from repro.telemetry.spans import Telemetry
from repro.core.weights import WeightTable
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_quotas

__all__ = [
    "ResilientLidNode",
    "ResilientLidResult",
    "run_resilient_lid",
    "make_byzantine_resilient",
]


class ResilientLidNode(LidProtocol, ReliableNode):
    """One LID participant on reliable channels with failure detection.

    The protocol rules are :class:`~repro.core.lid.LidProtocol`'s, shared
    with :class:`~repro.core.lid.LidNode`; the differences are confined
    to the transport and fault handling:

    - proposals and rejections travel via :meth:`rsend` (reliable), so
      there is no ``payload == "retry"`` duplicate-PROP special case —
      the transport suppresses duplicates before the protocol sees them;
    - every outstanding proposal is watched by the failure detector
      until it is answered;
    - :attr:`withdrawn` records peers released by suspicion or
      revocation; they are skipped by the candidate scan and refused
      (``REJ``) if they come back after a heal;
    - a finished node stays polite (it never hard-terminates) so it can
      keep ACKing retransmissions and answering stray proposals — the
      run ends by queue quiescence, as in the lossy A2 configuration.
    """

    _transmit = ReliableNode.rsend
    _on_propose = ReliableNode.watch
    _on_lock = ReliableNode.unwatch
    polite = True

    def __init__(
        self,
        weight_list: Sequence[int],
        quota: int,
        backoff: Optional[BackoffPolicy] = None,
        heartbeat_interval: Optional[float] = 2.0,
        suspect_after: Optional[float] = 10.0,
        rng=None,
    ):
        super().__init__(
            weight_list,
            quota,
            backoff=backoff,
            heartbeat_interval=heartbeat_interval,
            suspect_after=suspect_after,
            rng=rng,
        )
        self.withdrawn: set[int] = set()    # peers released by fault handling
        # statistics
        self.released_locks = 0
        self.post_finish_releases = 0
        self.unreachable_peers = 0

    # -- protocol --------------------------------------------------------

    def on_start(self) -> None:
        self.start_monitoring()
        super().on_start()

    def on_datagram(self, src: int, kind: str, payload) -> None:
        if kind == PROP:
            if src in self.withdrawn:
                # a suspected peer resurfaced after a heal: we already
                # re-proposed elsewhere, so refuse firmly (and finally)
                self._reject(src)
                return
            if src in self.locked:
                # transport dedup means this is not a retransmission —
                # only a Byzantine peer re-proposes a locked edge
                self.anomalies += 1
                return
            self._handle_prop(src)
        elif kind == REJ:
            if src in self.locked:
                # revocation: the partner suspected us during a fault
                # and released the edge; mirror the release
                self._release(src)
                return
            if src in self.withdrawn:
                return  # their revoke crossing ours — already resolved
            # answered; only outstanding proposals are watched, so this
            # is a no-op for a duplicate REJ
            self.unwatch(src)
            self._handle_rej(src)
        else:
            self.anomalies += 1

    def on_peer_suspected(self, peer: int) -> None:
        """A pending peer went silent: release, revoke, re-propose."""
        self.abandon(peer)  # stop retrying the data it never ACKed
        if peer in self.locked:  # defensive: watched peers are never locked
            self.locked.discard(peer)
            self.released_locks += 1
        self._withdraw(peer)
        # Revoke: if the peer is alive behind a partition and locked the
        # crossing proposal, it must release too.  Reliable, so the
        # notice survives a heal within the backoff budget's window.
        self._reject(peer)
        if not self.finished:
            self._process()

    def on_delivery_failed(self, dst: int, kind: str, payload) -> None:
        """Retransmit budget exhausted — the peer is unreachable."""
        self.unreachable_peers += 1
        if (
            kind == PROP
            and not self.finished
            and dst in self.proposed
            and dst not in self.locked
        ):
            # the proposal can never be answered; release it like a
            # suspicion (no revocation — it would fail the same way)
            self.unwatch(dst)
            self.suspected.add(dst)
            self._withdraw(dst)
            self._process()

    def on_raw_message(self, src: int, kind: str, payload) -> None:
        self.anomalies += 1  # nothing legitimate bypasses the transport

    def heartbeat_targets(self) -> frozenset[int]:
        if self.finished:
            return frozenset()
        # peers awaiting our decision must not mistake deliberation for death
        return frozenset(self.approachers - self.locked)

    def keep_monitoring(self) -> bool:
        return not self.finished

    # -- internals -------------------------------------------------------

    def _withdraw(self, peer: int) -> None:
        """Resolve ``peer`` for good: it is never proposed to again."""
        self.withdrawn.add(peer)
        self._resolve(peer)

    def _release(self, src: int) -> None:
        """Drop a locked edge on the partner's revocation."""
        self.locked.discard(src)
        self._withdraw(src)
        self.released_locks += 1
        if self.finished:
            # the freed slot stays empty: our final REJs already told
            # every other neighbour "no", and reopening would need a
            # renegotiation protocol (see docs/robustness.md)
            self.post_finish_releases += 1
            return
        self._process()


def make_byzantine_resilient(node: ResilientLidNode, mode: str = "reject_all"):
    """Corrupt a resilient node's *protocol* layer, keeping its transport.

    The transport stays honest (ACKs, duplicate suppression) so honest
    peers are attacked at the matching level, not starved by retries —
    the adversary model of the paper's §7 discussion.

    Modes mirror :func:`repro.distsim.failures.make_byzantine`:
    ``reject_all`` answers every proposal with ``REJ`` and proposes to
    nobody; ``accept_all`` proposes to every neighbour regardless of
    quota and "locks" whatever answers, never sending a rejection.
    """
    if mode == "reject_all":
        def on_start() -> None:
            node.unresolved = set()

        def on_datagram(src: int, kind: str, payload) -> None:
            if kind == PROP:
                node.rsend(src, REJ)

        node.on_start = on_start
        node.on_datagram = on_datagram
        node._byzantine = ("reject_all", None)
        return node
    if mode == "accept_all":
        def on_start() -> None:
            for j in node.weight_list:
                node.rsend(j, PROP)

        def on_datagram(src: int, kind: str, payload) -> None:
            if kind == PROP:
                node.locked.add(src)  # hoards connections, ignores quota

        node.on_start = on_start
        node.on_datagram = on_datagram
        node._byzantine = ("accept_all", None)
        return node
    raise ValueError(f"unknown byzantine mode {mode!r}")


@dataclass
class ResilientLidResult:
    """Outcome of a resilient LID run under fault injection.

    ``matching`` holds the **mutual** locks between live honest nodes —
    the live-subgraph matching every safety claim quantifies over.
    ``violations`` aggregates the runtime monitor's findings plus the
    final symmetry sweep; an empty list is the pass condition of every
    fault-campaign cell.
    """

    matching: Matching
    metrics: SimMetrics
    nodes: list
    live: frozenset[int]
    honest: frozenset[int]
    terminated: bool
    violations: list[str] = field(default_factory=list)
    suspected_edges: frozenset[tuple[int, int]] = frozenset()
    asymmetric_locks: int = 0
    late_messages: int = 0
    monitor: Optional[InvariantMonitor] = None
    truncation: Optional[TruncationReport] = None

    @property
    def live_honest(self) -> frozenset[int]:
        """Nodes that are both live (never crashed) and protocol-abiding."""
        return self.live & self.honest

    @property
    def ok(self) -> bool:
        """Terminated with zero invariant violations."""
        return self.terminated and not self.violations

    def clean_nodes(self) -> frozenset[int]:
        """Live honest nodes whose final state faults did not degrade.

        A node is *clean* when it finished, released no lock after
        finishing, and every lock it holds is with a live honest
        partner — i.e. its protocol view coincides with the extracted
        live-subgraph matching.  The no-weighted-blocking-edge
        certificate is exact on clean pairs (see ``docs/robustness.md``).
        """
        out = set()
        for i in self.live_honest:
            node = self.nodes[i]
            if not node.finished or node.post_finish_releases:
                continue
            if any(j not in self.live_honest for j in node.locked):
                continue
            out.add(i)
        return frozenset(out)


def run_resilient_lid(
    wt: WeightTable,
    quotas: Sequence[int],
    *,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    fifo: bool = True,
    drop_filter=None,
    partitions: Optional[PartitionSchedule] = None,
    flaps: Iterable[LinkFlap] = (),
    crashes: Optional[CrashSchedule] = None,
    byzantine: Optional[Mapping[int, str]] = None,
    backoff: Optional[BackoffPolicy] = None,
    heartbeat_interval: float = 2.0,
    suspect_after: float = 10.0,
    monitor: "bool | InvariantMonitor" = True,
    strict: bool = False,
    trace: Optional[Trace] = None,
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
    max_rounds: Optional[int] = None,
    telemetry=None,
    probe=None,
) -> ResilientLidResult:
    """Execute resilient LID under an arbitrary fault configuration.

    Composes the loss filter, partition schedule and link flaps into the
    network, installs crash control events, wraps Byzantine nodes, wires
    the invariant monitor into the simulator and runs to quiescence.
    Termination of live honest nodes is *checked and reported*, not
    assumed — a cell of the fault campaign asserts ``result.ok``.

    Parameters beyond :func:`repro.core.lid.run_lid`'s: ``partitions`` /
    ``flaps`` / ``crashes`` (failure schedules; the drop-filter halves
    are composed automatically), ``byzantine`` (node id → mode),
    ``backoff`` (transport retransmission policy),
    ``heartbeat_interval`` / ``suspect_after`` (failure detector), and
    ``monitor`` (``True``, ``False`` or a pre-built
    :class:`InvariantMonitor`; ``strict`` makes the first violation
    raise at the offending delivery).

    ``telemetry`` / ``probe`` behave exactly as in
    :func:`repro.core.lid.run_lid`: phases are attributed to
    ``build_weights`` / ``sim_loop`` / ``extract`` (same buckets as the
    other engines), and the convergence probe samples node state at
    virtual-time ticks without perturbing the run.  Under faults the
    probe trajectory shows degradation and repair — e.g.
    ``outstanding_props`` spiking across a partition.
    """
    n = wt.n
    check_quotas(quotas, n)
    max_rounds = validate_max_rounds(max_rounds)
    if max_rounds is not None:
        if max_time is not None:
            raise ValueError(
                "max_rounds and max_time are mutually exclusive: max_rounds"
                " is the round-budget spelling of the same virtual-time"
                " horizon"
            )
        max_time = round_horizon(max_rounds)
    byzantine = dict(byzantine or {})
    for b in byzantine:
        if not (0 <= b < n):
            raise ValueError(f"byzantine id {b} out of range for n={n}")
    policy = backoff if backoff is not None else BackoffPolicy()
    if policy.budget is None and (crashes is not None and crashes.crashes):
        raise ValueError(
            "an unlimited retransmit budget cannot quiesce once a node "
            "crashes (its peers retry forever); give BackoffPolicy a "
            "finite budget"
        )

    tel = telemetry if telemetry is not None else Telemetry()
    mark = tel.mark()
    with tel.span("build_weights"):
        nodes = [
            ResilientLidNode(
                wt.weight_list(i),
                quotas[i],
                backoff=policy,
                heartbeat_interval=heartbeat_interval,
                suspect_after=suspect_after,
                rng=spawn_rng(seed, "resilient-jitter", str(i)),
            )
            for i in range(n)
        ]
        for b, mode in byzantine.items():
            make_byzantine_resilient(nodes[b], mode)
        honest = frozenset(range(n)) - frozenset(byzantine)

        flaps = list(flaps)
        drop = compose_drops(drop_filter, partitions, *flaps)
        network = Network(
            n,
            latency=latency,
            fifo=fifo,
            links=wt.edges(),
            drop_filter=drop,
            seed=seed,
        )
        if monitor is True:
            mon: Optional[InvariantMonitor] = InvariantMonitor(
                quotas,
                [set(wt.neighbors(i)) for i in range(n)],
                honest=honest,
                strict=strict,
            )
        elif monitor is False:
            mon = None
        else:
            mon = monitor
        sim = Simulator(network, nodes, trace=trace, monitor=mon)
        if crashes is not None:
            crashes.install(sim)
        if partitions is not None:
            partitions.install(sim)
        for flap in flaps:
            flap.install(sim)

    with tel.span("sim_loop"):
        metrics = sim.run(max_events=max_events, max_time=max_time, probe=probe)

    with tel.span("extract"):
        live = frozenset(i for i in range(n) if not nodes[i].crashed)
        live_honest = live & honest
        terminated = all(nodes[i].finished for i in live_honest)
        if mon is not None:
            mon.at_quiescence(sim)
            violations = list(mon.violations)
        else:
            violations = []

        matching, one_sided = mutual_locks(nodes, members=live_honest)
        asymmetric = len(one_sided)
        suspected_edges = frozenset(
            (i, j) if i < j else (j, i)
            for i in range(n)
            for j in nodes[i].withdrawn
            if i in honest
        )
        truncation = TruncationReport(
            max_rounds=max_rounds,
            rounds=int(metrics.end_time),
            converged=(sim.pending_events() == 0),
            released_locks=asymmetric,
        )
    metrics.phase_seconds = tel.phase_seconds(since=mark)
    return ResilientLidResult(
        matching=matching,
        metrics=metrics,
        nodes=nodes,
        live=live,
        honest=honest,
        terminated=terminated,
        violations=violations,
        suspected_edges=suspected_edges,
        asymmetric_locks=asymmetric,
        late_messages=sim.late_messages,
        monitor=mon,
        truncation=truncation,
    )
