"""Reliable-channel layer: ACKs, backoff retransmission, heartbeats.

The faithful Algorithm 1 assumes reliable point-to-point channels.  The
paper's future-work section (§7) asks what happens without them; this
module is the substrate-level answer — a transport any protocol node
can opt into by subclassing :class:`ReliableNode`:

- **reliable delivery** — every datagram carries a per-link sequence
  number and is retransmitted on a capped exponential backoff schedule
  (deterministic seeded jitter) until the receiver's ``ACK`` arrives or
  the retransmit *budget* is exhausted;
- **duplicate suppression** — the receiver delivers each ``(src, seq)``
  exactly once to the protocol layer, so retransmissions are invisible
  to protocol logic (no more ``payload == "retry"`` special cases);
- **failure detection** — a heartbeat tick broadcasts liveness to the
  peers awaiting this node's decision, and a per-peer silence clock
  (fed by *any* traffic: data, ACKs or heartbeats) raises
  :meth:`ReliableNode.on_peer_suspected` once a *watched* peer has been
  silent for ``suspect_after`` time units.

The protocol layer talks through three hooks instead of the raw
``ProtocolNode`` ones: :meth:`ReliableNode.rsend` to send,
:meth:`ReliableNode.on_datagram` to receive, and
:meth:`ReliableNode.on_app_timer` for its own timers.  The base class
owns ``on_message`` / ``on_timer`` and multiplexes transport control
traffic (``DATA`` / ``ACK`` / ``HB``) away from protocol data.

Determinism: backoff jitter is the only randomness and comes from a
generator the caller spawns off the run's root seed (one per node, via
:func:`repro.utils.rng.spawn_rng`), so a seeded fault campaign replays
exactly.

Liveness boundary (documented, tested, and reported honestly): a
message to a *crashed* peer retransmits until the budget runs out and
then surfaces through :meth:`ReliableNode.on_delivery_failed`; a
message across a *partition* is delivered iff the partition heals
within the budget's backoff window.  Campaigns size
``BackoffPolicy.budget`` against their partition windows — see
``docs/robustness.md``.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.distsim.node import ProtocolNode

__all__ = ["BackoffPolicy", "ReliableNode", "DATA", "ACK", "HB"]

#: Transport-level message kinds (protocol kinds travel inside DATA).
DATA = "DATA"
ACK = "ACK"
HB = "HB"

#: Internal timer-tag markers (tuples so they never collide with app tags).
_RETX = "__retx__"
_TICK = "__hb_tick__"


class BackoffPolicy:
    """Retransmission schedule: capped exponential backoff with jitter.

    Attempt ``k`` (0-based; attempt 0 arms the timer at first send) is
    retried after ``min(base * factor**k, cap)`` time units, stretched
    by up to ``jitter`` (a fraction) of itself using the caller's
    seeded generator — jitter de-synchronises retry storms after a
    partition heals without breaking reproducibility.

    ``base`` must exceed the network round-trip time or every first
    retry fires before its ACK can possibly arrive; the default of 3.0
    clears the default unit-latency network's RTT of 2.0.

    ``budget`` bounds the number of *re*-transmissions per datagram
    (``None`` = unlimited, which trades guaranteed quiescence for
    delivery persistence — a campaign against crashes must keep it
    finite).  :meth:`span` gives the worst-case time from first send to
    giving up, the number ``GridSpec`` compares against the partition
    window of its resilient cells.
    """

    def __init__(
        self,
        base: float = 3.0,
        factor: float = 2.0,
        cap: float = 30.0,
        jitter: float = 0.1,
        budget: Optional[int] = 12,
    ):
        if not (math.isfinite(base) and base > 0):
            raise ValueError(f"base must be positive and finite, got {base}")
        if not (math.isfinite(factor) and factor >= 1.0):
            raise ValueError(f"factor must be finite and >= 1, got {factor}")
        if not (math.isfinite(cap) and cap >= base):
            raise ValueError(f"cap must be finite and >= base, got cap={cap}, base={base}")
        if not (0.0 <= jitter < 1.0):
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if budget is not None and (not isinstance(budget, int) or budget < 1):
            raise ValueError(f"budget must be a positive int or None, got {budget!r}")
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self.jitter = float(jitter)
        self.budget = budget

    @classmethod
    def fixed(cls, timeout: float, budget: Optional[int] = None) -> "BackoffPolicy":
        """The legacy fixed-timer schedule (no growth, no jitter)."""
        return cls(base=timeout, factor=1.0, cap=timeout, jitter=0.0, budget=budget)

    def delay(self, attempt: int, rng: Optional[np.random.Generator] = None) -> float:
        """Delay before (re)transmission number ``attempt + 1``."""
        d = min(self.base * self.factor ** attempt, self.cap)
        if self.jitter and rng is not None:
            d *= 1.0 + self.jitter * float(rng.random())
        return d

    def span(self) -> float:
        """Worst-case time from first send until the budget is exhausted.

        ``inf`` for unlimited budgets.  Jitter is included at its
        maximum, so a partition strictly shorter than ``span()`` plus
        the one-way latency is always out-waited by a pending datagram.
        """
        if self.budget is None:
            return float("inf")
        total = 0.0
        for attempt in range(self.budget + 1):
            total += min(self.base * self.factor ** attempt, self.cap)
        return total * (1.0 + self.jitter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BackoffPolicy(base={self.base}, factor={self.factor}, "
            f"cap={self.cap}, jitter={self.jitter}, budget={self.budget})"
        )


class ReliableNode(ProtocolNode):
    """Protocol-node base class with reliable channels and failure detection.

    Subclasses implement the *datagram* hooks (:meth:`on_datagram`,
    :meth:`on_app_timer`, :meth:`on_peer_suspected`,
    :meth:`on_delivery_failed`) and send via :meth:`rsend`; the
    transport beneath guarantees exactly-once, eventually-delivered
    semantics within the retransmit budget.

    Parameters
    ----------
    backoff:
        Retransmission policy (default: capped exponential, budget 12).
    heartbeat_interval:
        Period of the liveness tick.  Each tick sends ``HB`` to
        :meth:`heartbeat_targets` and sweeps the watch list for silent
        peers.  ``None`` disables heartbeats *and* failure detection.
    suspect_after:
        Silence (no message of any kind) threshold after which a
        *watched* peer is declared suspected.  Must comfortably exceed
        ``heartbeat_interval`` plus channel latency, or live peers get
        declared dead (the classic failure-detector accuracy/latency
        trade-off; a grid spec's ``suspect_after`` sets it for resilient
        cells).
    rng:
        Seeded generator for backoff jitter (``None`` = no jitter).
    """

    def __init__(
        self,
        backoff: Optional[BackoffPolicy] = None,
        heartbeat_interval: Optional[float] = None,
        suspect_after: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        if heartbeat_interval is not None and not (
            math.isfinite(heartbeat_interval) and heartbeat_interval > 0
        ):
            raise ValueError(
                "heartbeat_interval must be positive and finite, got "
                f"{heartbeat_interval}"
            )
        if suspect_after is not None:
            if heartbeat_interval is None:
                raise ValueError("suspect_after requires heartbeat_interval")
            # a NaN threshold never compares true: detection would be off
            if not (math.isfinite(suspect_after) and suspect_after > heartbeat_interval):
                raise ValueError(
                    "suspect_after must be finite and exceed heartbeat_interval "
                    f"(got {suspect_after}, interval {heartbeat_interval})"
                )
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after = suspect_after
        self._rng = rng
        # transport state
        self._next_seq: dict[int, int] = {}
        self._unacked: dict[tuple[int, int], list] = {}  # (dst, seq) -> [kind, payload, attempts]
        self._delivered: dict[int, set[int]] = {}  # src -> seqs handed to protocol
        # failure-detector state
        self._watched: dict[int, float] = {}  # peer -> watch start time
        self._last_heard: dict[int, float] = {}
        self.suspected: set[int] = set()
        self._ticking = False
        # transport statistics
        self.retransmissions = 0
        self.duplicates = 0
        self.acks_sent = 0
        self.heartbeats_sent = 0
        self.delivery_failures = 0
        self.raw_messages = 0

    # -- sending --------------------------------------------------------

    def rsend(self, dst: int, kind: str, payload: Any = None) -> None:
        """Send ``kind``/``payload`` reliably (ACK + retransmission)."""
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        self._unacked[(dst, seq)] = [kind, payload, 0]
        self.send(dst, DATA, (seq, kind, payload))
        self.set_timer(self.backoff.delay(0, self._rng), (_RETX, dst, seq))

    def abandon(self, peer: int) -> int:
        """Stop retransmitting everything currently pending to ``peer``.

        Used when the failure detector gives up on a peer; returns the
        number of cancelled datagrams.  Later :meth:`rsend` calls to the
        same peer start fresh (e.g. a revocation notice that should
        still try to get through a healing partition).
        """
        stale = [key for key in self._unacked if key[0] == peer]
        for key in stale:
            del self._unacked[key]
        return len(stale)

    def unacked_to(self, peer: int) -> int:
        """Number of datagrams currently awaiting ``peer``'s ACK."""
        return sum(1 for dst, _ in self._unacked if dst == peer)

    # -- failure detector ----------------------------------------------

    def watch(self, peer: int) -> None:
        """Start monitoring ``peer`` for liveness (idempotent)."""
        if self.suspect_after is None or peer in self.suspected:
            return
        self._watched.setdefault(peer, self.now)
        self._ensure_tick()

    def unwatch(self, peer: int) -> None:
        """Stop monitoring ``peer`` (it answered / resolved)."""
        self._watched.pop(peer, None)

    def watched(self) -> frozenset[int]:
        """Peers currently under liveness surveillance."""
        return frozenset(self._watched)

    def start_monitoring(self) -> None:
        """Arm the heartbeat tick (call from ``on_start`` when enabled)."""
        self._ensure_tick()

    def _ensure_tick(self) -> None:
        if self.heartbeat_interval is None or self._ticking:
            return
        self._ticking = True
        self.set_timer(self.heartbeat_interval, (_TICK,))

    def _tick(self) -> None:
        self._ticking = False
        for peer in self.heartbeat_targets():
            self.send(peer, HB)
            self.heartbeats_sent += 1
        if self.suspect_after is not None:
            now = self.now
            for peer in [
                p
                for p, since in self._watched.items()
                if now - self._last_heard.get(p, since) > self.suspect_after
            ]:
                self._watched.pop(peer, None)
                self.suspected.add(peer)
                self.on_peer_suspected(peer)
        if self.keep_monitoring():
            self._ensure_tick()

    # -- ProtocolNode plumbing (final: subclasses use the hooks below) --

    def on_message(self, src: int, kind: str, payload: Any) -> None:
        self._last_heard[src] = self.now
        if kind == DATA:
            seq, inner_kind, inner_payload = payload
            # ACK unconditionally — duplicates mean our previous ACK was
            # lost, so the sender needs another one to stop retrying.
            self.send(src, ACK, seq)
            self.acks_sent += 1
            seen = self._delivered.setdefault(src, set())
            if seq in seen:
                self.duplicates += 1
                if self.sim is not None:
                    self.sim.metrics.duplicates_suppressed += 1
                return
            seen.add(seq)
            self.on_datagram(src, inner_kind, inner_payload)
        elif kind == ACK:
            self._unacked.pop((src, payload), None)
        elif kind == HB:
            pass  # liveness already noted above
        else:
            self.raw_messages += 1
            self.on_raw_message(src, kind, payload)

    def on_timer(self, tag: Any) -> None:
        if type(tag) is tuple and tag:
            if tag[0] == _RETX:
                _, dst, seq = tag
                entry = self._unacked.get((dst, seq))
                if entry is None:
                    return  # acked or abandoned — timer cancelled
                kind, payload, attempts = entry
                attempts += 1
                if self.backoff.budget is not None and attempts > self.backoff.budget:
                    del self._unacked[(dst, seq)]
                    self.delivery_failures += 1
                    self.on_delivery_failed(dst, kind, payload)
                    return
                entry[2] = attempts
                self.send(dst, DATA, (seq, kind, payload))
                self.retransmissions += 1
                if self.sim is not None:
                    self.sim.metrics.retransmissions += 1
                self.set_timer(self.backoff.delay(attempts, self._rng), tag)
                return
            if tag[0] == _TICK:
                self._tick()
                return
        self.on_app_timer(tag)

    # -- protocol hooks (override in subclasses) ------------------------

    def on_datagram(self, src: int, kind: str, payload: Any) -> None:
        """Called exactly once per successfully delivered datagram."""

    def on_app_timer(self, tag: Any) -> None:
        """Called for timers the protocol layer set via ``set_timer``."""

    def on_peer_suspected(self, peer: int) -> None:
        """A watched peer exceeded the silence threshold."""

    def on_delivery_failed(self, dst: int, kind: str, payload: Any) -> None:
        """The retransmit budget for a datagram ran out unacknowledged."""

    def on_raw_message(self, src: int, kind: str, payload: Any) -> None:
        """A non-transport message arrived (legacy or Byzantine peer)."""

    def heartbeat_targets(self) -> frozenset[int]:
        """Peers to send ``HB`` to on each tick.

        Default: nobody.  Protocols return the peers *awaiting their
        decision* (for LID: the unanswered approachers) so that a slow
        but live node is not mistaken for a dead one.
        """
        return frozenset()

    def keep_monitoring(self) -> bool:
        """Whether the heartbeat tick should re-arm.

        Default: while anything is still watched.  Protocols extend
        this (e.g. LID keeps ticking until the node has finished).
        """
        return bool(self._watched)
