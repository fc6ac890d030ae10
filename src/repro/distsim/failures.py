"""Failure injection: loss, crashes, partitions, link flaps, Byzantine.

The paper's future-work section (§7) asks how the greedy strategy copes
with "scenarios where some malicious nodes actively try to disrupt the
algorithm's execution".  These adapters let the robustness experiments
(A2 and the grid's ``resilient`` fault cells, ``grid run --profile
chaos|faults``) exercise LID under:

- i.i.d. message loss (:class:`BernoulliLoss`),
- scheduled node crashes (:class:`CrashSchedule`),
- network partitions with heal cycles (:class:`PartitionSchedule`),
- periodically flapping links (:class:`LinkFlap`),
- Byzantine nodes that reject everyone or spam proposals
  (:func:`make_byzantine`).

LID as published assumes reliable channels; under loss it can stall
(a node waits forever for an answer).  Two reliability layers restore
termination:

- the minimal timer-retransmission wrapper
  (:class:`repro.core.lid.LidNode` with ``retransmit_timeout``), and
- the full resilient runtime
  (:class:`repro.core.resilient_lid.ResilientLidNode` over
  :class:`repro.distsim.reliable.ReliableNode`), which adds ACKs,
  duplicate suppression and heartbeat failure detection so crashes and
  partitions are survived too — see ``docs/robustness.md``.

Time-varying injectors (:class:`PartitionSchedule`, :class:`LinkFlap`)
are *both* drop filters and control-event sources: install them on the
simulator (``sched.install(sim)``) so their windows toggle at the right
virtual times, and pass them (possibly composed with a loss filter via
:func:`compose_drops`) as the network's ``drop_filter``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.distsim.messages import Message
from repro.distsim.network import DropFilter
from repro.utils.validation import check_probability

__all__ = [
    "BernoulliLoss",
    "CrashSchedule",
    "PartitionSchedule",
    "LinkFlap",
    "compose_drops",
    "make_byzantine",
]


class BernoulliLoss:
    """Drop filter: each message is lost independently with probability ``p``.

    Optionally restricted to a set of ``victims`` (messages to or from
    those nodes), modelling lossy last-mile links.
    """

    def __init__(self, p: float, victims: Iterable[int] | None = None):
        self.p = check_probability(p, "p")
        self.victims = None if victims is None else frozenset(victims)

    def __call__(self, msg: Message, rng: np.random.Generator) -> bool:
        if self.victims is not None and msg.src not in self.victims and msg.dst not in self.victims:
            return False
        return bool(rng.random() < self.p)


class CrashSchedule:
    """Crash the given nodes at the given virtual times.

    Entries are ``(time, node_id)`` pairs.  Inputs are validated
    eagerly: a non-positive or non-finite time, or a negative node id,
    raises :class:`ValueError` at construction; an id beyond the
    simulator's node table raises at :meth:`install` — silent
    scheduling of impossible crashes would make a fault campaign
    vacuously pass.

    Usage::

        sched = CrashSchedule([(5.0, 3), (9.0, 7)])
        sched.install(sim)
    """

    def __init__(self, crashes: Sequence[tuple[float, int]]):
        validated = []
        for entry in crashes:
            try:
                time, node = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"crash entries must be (time, node_id) pairs, got {entry!r}"
                ) from None
            time = float(time)
            if not np.isfinite(time) or time <= 0:
                raise ValueError(
                    f"crash time must be positive and finite, got {time!r}"
                )
            if not isinstance(node, (int, np.integer)) or isinstance(node, bool):
                raise ValueError(f"crash node id must be an int, got {node!r}")
            if node < 0:
                raise ValueError(f"crash node id must be non-negative, got {node}")
            validated.append((time, int(node)))
        self.crashes = sorted(validated)

    @property
    def victims(self) -> frozenset[int]:
        """Node ids scheduled to crash."""
        return frozenset(node for _, node in self.crashes)

    def install(self, sim) -> None:
        """Register control events on a simulator."""
        for _, node in self.crashes:
            if node >= len(sim.nodes):
                raise ValueError(
                    f"crash schedule names unknown node {node} "
                    f"(simulator has {len(sim.nodes)} nodes)"
                )
        for time, node in self.crashes:
            sim.schedule_control(time, lambda s, node=node: s.crash(node))


class PartitionSchedule:
    """Network partitions over ``[start, end)`` windows, with healing.

    Each window is ``(start, end, groups)`` where ``groups`` is a
    sequence of disjoint node-id groups.  While a window is active,
    messages between different groups are dropped; nodes not listed in
    any group form one implicit "rest" group.  At ``end`` the partition
    heals and traffic flows again (a *partition/heal cycle*).

    The object is simultaneously a drop filter (pass it — possibly
    composed via :func:`compose_drops` — as the network's
    ``drop_filter``) and a control-event source (call
    :meth:`install` so windows toggle at the scheduled virtual times).
    Messages already in flight when a window opens are delivered: the
    partition blocks *transmission*, not propagation, like a real cable
    cut between routers.
    """

    def __init__(self, windows: Sequence[tuple[float, float, Sequence[Sequence[int]]]]):
        self.windows: list[tuple[float, float, list[list[int]]]] = []
        for entry in windows:
            try:
                start, end, groups = entry
            except (TypeError, ValueError):
                raise ValueError(
                    "partition windows must be (start, end, groups) triples, "
                    f"got {entry!r}"
                ) from None
            start, end = float(start), float(end)
            if not (np.isfinite(start) and np.isfinite(end)) or not (0 <= start < end):
                raise ValueError(
                    f"need 0 <= start < end (finite), got ({start}, {end})"
                )
            seen: set[int] = set()
            clean_groups: list[list[int]] = []
            for group in groups:
                clean = [int(v) for v in group]
                for v in clean:
                    if v < 0:
                        raise ValueError(f"negative node id {v} in partition group")
                    if v in seen:
                        raise ValueError(
                            f"node {v} appears in two groups of the same window"
                        )
                    seen.add(v)
                clean_groups.append(clean)
            if not clean_groups:
                raise ValueError("a partition window needs at least one group")
            self.windows.append((start, end, clean_groups))
        self.windows.sort(key=lambda w: w[0])
        #: node id -> active group index (empty when healed)
        self._group_of: dict[int, int] = {}
        self._active = False
        #: messages dropped because a partition was active
        self.partition_drops = 0

    @property
    def active(self) -> bool:
        """Whether a partition window is currently open."""
        return self._active

    def _open(self, groups: Sequence[Sequence[int]]) -> None:
        self._group_of = {v: g for g, members in enumerate(groups) for v in members}
        self._active = True

    def _heal(self) -> None:
        self._group_of = {}
        self._active = False

    def install(self, sim) -> None:
        """Schedule the open/heal toggles as simulator control events."""
        for start, end, groups in self.windows:
            sim.schedule_control(start, lambda s, g=groups: self._open(g))
            sim.schedule_control(end, lambda s: self._heal())

    def __call__(self, msg: Message, rng: np.random.Generator) -> bool:
        if not self._active:
            return False
        if self._group_of.get(msg.src, -1) != self._group_of.get(msg.dst, -1):
            self.partition_drops += 1
            return True
        return False

    def severed(self, i: int, j: int) -> bool:
        """Whether the live configuration currently severs ``i`` ↔ ``j``."""
        return self._active and self._group_of.get(i, -1) != self._group_of.get(j, -1)


class LinkFlap:
    """One undirected link going down/up periodically.

    Starting at ``phase``, the link ``(i, j)`` is down for ``down_for``
    time units at the start of every ``period``, until virtual time
    ``until``.  Like :class:`PartitionSchedule` it is both a drop
    filter and a control-event source (:meth:`install`).
    """

    def __init__(
        self,
        link: tuple[int, int],
        period: float,
        down_for: float,
        until: float,
        phase: float = 0.0,
    ):
        i, j = int(link[0]), int(link[1])
        if i < 0 or j < 0 or i == j:
            raise ValueError(f"link must join two distinct non-negative ids, got {link!r}")
        self.link = (i, j) if i < j else (j, i)
        if period <= 0 or down_for <= 0 or down_for >= period:
            raise ValueError(
                f"need 0 < down_for < period, got down_for={down_for}, period={period}"
            )
        if until <= phase or phase < 0:
            raise ValueError(f"need 0 <= phase < until, got phase={phase}, until={until}")
        self.period = float(period)
        self.down_for = float(down_for)
        self.until = float(until)
        self.phase = float(phase)
        self._down = False
        self.flap_drops = 0

    @property
    def down(self) -> bool:
        """Whether the link is currently down."""
        return self._down

    def _set(self, down: bool) -> None:
        self._down = down

    def install(self, sim) -> None:
        """Schedule the down/up toggles as simulator control events."""
        t = self.phase
        while t < self.until:
            start = max(t, 1e-9)  # control events need positive time
            sim.schedule_control(start, lambda s: self._set(True))
            sim.schedule_control(t + self.down_for, lambda s: self._set(False))
            t += self.period

    def __call__(self, msg: Message, rng: np.random.Generator) -> bool:
        if not self._down:
            return False
        a, b = (msg.src, msg.dst) if msg.src < msg.dst else (msg.dst, msg.src)
        if (a, b) == self.link:
            self.flap_drops += 1
            return True
        return False


def compose_drops(*filters: DropFilter | None) -> DropFilter | None:
    """OR-compose drop filters: a message is dropped if *any* filter drops it.

    ``None`` entries are skipped; with no live filters the result is
    ``None`` (no loss), so callers can pass optional injectors straight
    through.  Filters are evaluated in order and evaluation stops at the
    first drop, so each filter's accounting only counts messages that
    survived the earlier ones.
    """
    live = [f for f in filters if f is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def _composite(msg: Message, rng: np.random.Generator) -> bool:
        return any(f(msg, rng) for f in live)

    return _composite


def make_byzantine(node, mode: str = "reject_all"):
    """Wrap a protocol node with disruptive behaviour.

    Works on :class:`repro.core.lid.LidNode`-style nodes (raw
    ``PROP``/``REJ`` messages).  For the resilient runtime use
    :func:`repro.core.resilient_lid.make_byzantine_resilient`, which
    keeps the transport layer intact while corrupting the protocol
    layer.

    Modes
    -----
    ``reject_all``:
        The node answers every proposal with ``REJ`` and proposes to
        nobody — it removes itself from the matching while forcing
        neighbours to walk down their weight lists.
    ``accept_all``:
        The node proposes to *every* neighbour regardless of quota,
        trying to lock more connections than allowed.  Honest LID nodes
        are not harmed: they lock at most their own quota, and the
        resulting matching restricted to honest-honest edges stays
        feasible (checked by experiment A2).
    """
    if mode == "reject_all":
        original_on_message = node.on_message

        def on_message(src: int, kind: str, payload) -> None:
            if kind == "PROP":
                node.send(src, "REJ")
            # swallow everything else

        def on_start() -> None:
            node.terminated = False  # stays alive to keep rejecting

        node.on_message = on_message
        node.on_start = on_start
        node._byzantine = ("reject_all", original_on_message)
        return node
    if mode == "accept_all":
        def on_start() -> None:
            for j in node.weight_list:
                node.send(j, "PROP")

        def on_message(src: int, kind: str, payload) -> None:
            if kind == "PROP":
                # claims the connection but never honours quota
                node.locked.add(src)

        node.on_start = on_start
        node.on_message = on_message
        node._byzantine = ("accept_all", None)
        return node
    raise ValueError(f"unknown byzantine mode {mode!r}")
