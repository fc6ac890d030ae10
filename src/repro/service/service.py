"""The long-lived matching engine: :class:`MatchingService`.

:class:`~repro.overlay.churn.DynamicOverlay` already keeps the unique
LIC matching alive across single churn events.  The service extends it
into something deployable:

- **exact incremental repair** — every event is repaired by
  :func:`~repro.overlay.churn.greedy_repair` warm-started from the
  surviving matching and run to its no-blocking-edge fixpoint, so the
  served matching is always the unique LIC matching of the live
  instance; only degraded mode (below) answers events with a full
  re-solve;
- **event application** — :meth:`apply` resolves a self-contained
  :class:`~repro.service.events.ChurnEvent` against the live overlay,
  deterministically: victims index the sorted alive-id list with the
  event's pre-drawn entropy, joiners derive their attachment points
  from a generator seeded with it;
- **invariant guards and the degraded-mode ladder** — after every event
  a :class:`~repro.service.guards.ServiceGuard` pass checks the
  partner-set rule (capacity, liveness, mutual consent) and (sampled)
  eq.-9 weight consistency.  A violation
  demotes the service to *degraded* mode: the ranked lists are
  re-scored, the weight cache rebuilt from them and the matching fully
  re-solved, and every event is answered by a full re-solve until
  :data:`DEGRADED_RECOVERY` consecutive clean events restore
  incremental mode.  Corruption the event's repair runs into
  (:class:`~repro.utils.validation.InvalidMatchingError`) counts as a
  violation of that event's pass.  A violation that survives the full
  re-solve is unrecoverable and raises :class:`ServiceCorruption`;
- **snapshots** — :meth:`snapshot` / :meth:`restore` round-trip the
  primary state only (peers, adjacency, counters, ladder position)
  through JSON values, exactly.  The ranked lists, the eq.-9 weight
  cache and the matching, the unique LIC matching of those lists, are
  functions of the peers and adjacency: :meth:`restore` validates its
  input and re-derives them through
  :meth:`~repro.overlay.churn.DynamicOverlay.full_rematch`, as
  construction does, so a corrupt cache or partner set is never
  persisted.  Each peer's record and adjacency
  list are read-only values (:class:`~repro.service.checkpoint.FrozenRecord`,
  :class:`~repro.service.checkpoint.FrozenList`) kept from one snapshot
  to the next until an event touches the peer, so a checkpoint encodes
  only what changed.  :mod:`repro.service.checkpoint` wraps the
  snapshots in versioned atomic files.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Optional

import numpy as np

from repro.overlay.churn import DynamicOverlay, RepairStats
from repro.overlay.peer import Peer
from repro.service.checkpoint import FrozenList, FrozenRecord
from repro.service.events import ChurnEvent
from repro.service.guards import GuardReport, ServiceGuard
from repro.utils.validation import InvalidMatchingError

__all__ = ["COUNTERS", "EventOutcome", "MatchingService", "ServiceCorruption"]

#: every counter the service maintains; checkpointed so a resumed run
#: reports bit-identical totals
COUNTERS = (
    "events",
    "joins",
    "leaves",
    "crashes",
    "updates",
    "skipped",
    "resolutions",
    "full_resolves",
    "guard_violations",
    "degraded_entries",
    "weights_reused",
    "weights_recomputed",
)

MODES = ("incremental", "degraded")

#: the sampled eq.-9 weight guard runs on every k-th event; the
#: structural guard runs on every event
WEIGHT_CHECK_EVERY = 8

#: consecutive clean events that return degraded mode to incremental
DEGRADED_RECOVERY = 8


class ServiceCorruption(RuntimeError):
    """An invariant violation survived the degraded-mode full re-solve."""


@dataclass
class EventOutcome:
    """What one :meth:`MatchingService.apply` call did."""

    seq: int
    kind: str
    applied: bool
    peer_id: Optional[int]
    stats: Optional[RepairStats]
    guard_ok: bool
    mode: str
    n: int


class MatchingService(DynamicOverlay):
    """A :class:`DynamicOverlay` hardened for unattended operation."""

    def __init__(self, topology, peers: list[Peer], metric):
        self._init_guard()
        self.mode = "incremental"
        self._cooldown = 0
        self.counters: dict[str, int] = {k: 0 for k in COUNTERS}
        super().__init__(topology, peers, metric)

    def _init_guard(self) -> None:
        """Fresh guard state; :meth:`restore` shares it."""
        self.guard = ServiceGuard()
        #: violations the current event's repair raised, for its guard pass
        self._pending = GuardReport()

    def _init_live_state(self) -> None:
        super()._init_live_state()
        #: per live peer, its adjacency key, record and adjacency list as
        #: :meth:`snapshot` returns them; built there, dropped when an
        #: event may change the peer's attributes or adjacency
        self._frozen: dict[int, tuple[str, FrozenRecord, FrozenList]] = {}

    # -- repair --------------------------------------------------------

    def _repair(self, changed: set[int]) -> RepairStats:
        # ``changed`` holds every peer whose attributes or adjacency the
        # event changed (all but a leaver, which leave() drops)
        for pid in changed:
            self._frozen.pop(pid, None)
        # corruption inside the region a repair touches surfaces as
        # InvalidMatchingError; the event's guard pass answers it like a
        # violation the guard found itself, so the event still completes
        try:
            return super()._repair(changed)
        except InvalidMatchingError as exc:
            self._pending.violations.append(f"repair: {exc}")
            return RepairStats()

    def _full_resolve_due(self) -> bool:
        # degraded mode distrusts incremental state wholesale until the
        # ladder releases us
        return self.mode == "degraded"

    def _account(self, stats: RepairStats, full: bool) -> RepairStats:
        if full:
            self.counters["full_resolves"] += 1
            return stats
        self.counters["resolutions"] += stats.resolutions
        self.counters["weights_reused"] += stats.weights_reused
        self.counters["weights_recomputed"] += stats.weights_recomputed
        return stats

    # -- churn beyond join/leave ---------------------------------------

    def update_position(self, peer_id: int, position) -> RepairStats:
        """Move a peer; its whole neighbourhood re-ranks.

        A position change re-scores ``peer_id`` in every neighbour's
        list, which can shift the ranks of the neighbours' *other*
        candidates too — so every edge incident to ``{peer_id} ∪
        N(peer_id)`` is weight-dirty, not just the moved peer's own.
        A non-finite position, or one shaped unlike the peer's current
        one, raises :class:`ValueError` before any state changes.
        """
        if peer_id not in self._peers:
            raise KeyError(f"unknown peer {peer_id}")
        peer = self._peers[peer_id]
        new = np.asarray(position, dtype=float)
        if new.shape != peer.position.shape or not np.all(np.isfinite(new)):
            raise ValueError(
                f"position {position!r} must be finite and shaped like"
                f" peer {peer_id}'s {peer.position.shape}"
            )
        peer.position = new
        self._lists.rescore(peer_id)
        return self._repair({peer_id} | self._adj[peer_id])

    def leave(self, peer_id: int) -> RepairStats:
        self._frozen.pop(peer_id, None)
        # a departed partner of the leaver is answered like corruption a
        # repair runs into; the leave skipped the repair that drops the
        # neighbours' entries, so every entry goes
        try:
            return super().leave(peer_id)
        except InvalidMatchingError as exc:
            self._pending.violations.append(f"leave: {exc}")
            self._frozen.clear()
            return RepairStats()

    def crash(self, peer_id: int) -> RepairStats:
        """An ungraceful departure.

        The state transition is identical to :meth:`leave` — the
        overlay only ever observes absence — but callers account for it
        separately (see the ``crashes`` counter).
        """
        return self.leave(peer_id)

    # -- event application ---------------------------------------------

    def apply(self, event: ChurnEvent) -> EventOutcome:
        """Apply one trace event; deterministic in ``(event, state)``."""
        self.counters["events"] += 1
        alive = self.active_ids()
        applied = True
        stats: Optional[RepairStats] = None
        pid: Optional[int] = None
        if event.kind == "join":
            peer = Peer(
                peer_id=-1,
                position=np.asarray(event.position, dtype=float),
                quota=max(1, event.quota),
            )
            k = min(max(0, event.degree), len(alive))
            if k > 0:
                rng = np.random.default_rng(event.r)
                picks = rng.choice(len(alive), size=k, replace=False)
                neigh = [alive[int(i)] for i in sorted(picks)]
            else:
                neigh = []
            pid, stats = self.join(peer, neigh)
            self.counters["joins"] += 1
        elif event.kind in ("leave", "crash"):
            if not alive:
                applied = False
            else:
                pid = alive[event.r % len(alive)]
                stats = self.crash(pid) if event.kind == "crash" else self.leave(pid)
                self.counters["crashes" if event.kind == "crash" else "leaves"] += 1
        elif event.kind == "update":
            if not alive:
                applied = False
            else:
                pid = alive[event.r % len(alive)]
                stats = self.update_position(pid, event.position)
                self.counters["updates"] += 1
        else:  # pragma: no cover - ChurnEvent validates kinds
            raise ValueError(f"unknown event kind {event.kind!r}")
        if not applied:
            self.counters["skipped"] += 1
        guard_ok = self._guard_pass()
        return EventOutcome(
            seq=event.seq,
            kind=event.kind,
            applied=applied,
            peer_id=pid,
            stats=stats,
            guard_ok=guard_ok,
            mode=self.mode,
            n=self.n,
        )

    # -- the invariant → degraded-mode ladder --------------------------

    def _guard_pass(self) -> bool:
        report, self._pending = self._pending, GuardReport()
        self.guard.check_structure(self, report)
        if self.counters["events"] % WEIGHT_CHECK_EVERY == 0:
            self.guard.check_weights(self, report)
        if report.ok:
            if self.mode == "degraded":
                self._cooldown -= 1
                if self._cooldown <= 0:
                    self.mode = "incremental"
            return True
        self._enter_degraded(report)
        return False

    def _enter_degraded(self, report: GuardReport) -> None:
        self.counters["guard_violations"] += len(report.violations)
        if self.mode != "degraded":
            self.counters["degraded_entries"] += 1
        self.mode = "degraded"
        self._cooldown = DEGRADED_RECOVERY
        # the lists and the caches are suspects in any corruption: the
        # full re-solve re-derives the lists and weights from scratch
        # with the matching, and the next snapshot its records
        self._frozen.clear()
        self.full_rematch()
        self.counters["full_resolves"] += 1
        recheck = GuardReport()
        self.guard.check_structure(self, recheck)
        self.guard.check_weights(self, recheck)
        if not recheck.ok:
            raise ServiceCorruption(
                "invariant violations survived a full re-solve: "
                + "; ".join(recheck.violations[:5])
            )

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> dict:
        """The primary state as JSON values.

        It holds peers, adjacency, counters and the ladder position.
        The matching is derived state: the unique LIC matching of the
        lists the peers and adjacency determine, which :meth:`restore`
        solves again.  Floats survive a JSON round-trip exactly in
        Python, so a restored service is *bit*-identical, not
        approximately equal.

        Each peer record and adjacency list is a read-only
        :class:`~repro.service.checkpoint.FrozenRecord` /
        :class:`~repro.service.checkpoint.FrozenList`, shared with
        earlier snapshots while no event touched the peer; they compare
        equal to their JSON round trip.  The top-level dict, the
        ``peers`` list and the ``adjacency`` dict are fresh on every
        call.
        """
        frozen = self._frozen
        entries = []
        for pid in sorted(self._peers):
            entry = frozen.get(pid)
            if entry is None:
                entry = frozen[pid] = self._freeze(pid)
            entries.append(entry)
        return {
            "next_id": self._next_id,
            "mode": self.mode,
            "cooldown": self._cooldown,
            "guard_cursor": self.guard._weight_cursor,
            "counters": dict(self.counters),
            "peers": [record for _, record, _ in entries],
            "adjacency": {key: adj for key, _, adj in entries},
        }

    def _freeze(self, pid: int) -> tuple[str, FrozenRecord, FrozenList]:
        p = self._peers[pid]
        record = FrozenRecord(
            peer_id=p.peer_id,
            position=FrozenList(p.position.tolist()),
            interests=FrozenList(p.interests.tolist()),
            bandwidth=float(p.bandwidth),
            reliability=float(p.reliability),
            quota=int(p.quota),
        )
        return str(pid), record, FrozenList(sorted(self._adj[pid]))

    @classmethod
    def restore(cls, state: dict, metric) -> "MatchingService":
        """Rebuild a service from :meth:`snapshot` output.

        The metric is *not* checkpointed — it must be reconstructed by
        the caller from its own parameters (the runner derives it from
        the service config seed), exactly as at first construction.
        The input is checked before any derived state is built: a
        missing, null or mistyped field, a position or interest vector
        that is not a finite vector, an unknown mode, a duplicate peer,
        a peer without adjacency or adjacency of a non-peer, a
        self-loop, a neighbour that is not a peer, an asymmetric link,
        or a ``next_id`` at or below a live id raises
        ``ValueError("corrupt snapshot: …")``.  The ranked lists, the
        weight cache and the matching are then re-derived by
        :meth:`~repro.overlay.churn.DynamicOverlay.full_rematch`, the
        path construction takes; no counter moves, and a degraded
        snapshot restores as degraded, with its cooldown.  ``state`` may
        be a snapshot itself or its JSON round trip; the restored
        service shares no value with it, and its first snapshot builds
        every peer's record and adjacency list afresh.
        """
        svc = cls.__new__(cls)
        svc._init_guard()
        svc.metric = metric
        # ``index`` refuses what ``int`` would parse or truncate ("3", 2.5)
        try:
            svc.guard._weight_cursor = index(state["guard_cursor"])
            svc.mode = str(state["mode"])
            svc._cooldown = index(state["cooldown"])
            svc.counters = {k: index(state["counters"].get(k, 0)) for k in COUNTERS}
            peers = [
                Peer(
                    peer_id=index(rec["peer_id"]),
                    position=np.asarray(rec["position"], dtype=float),
                    interests=np.asarray(rec["interests"], dtype=float),
                    bandwidth=float(rec["bandwidth"]),
                    reliability=float(rec["reliability"]),
                    quota=index(rec["quota"]),
                )
                for rec in state["peers"]
            ]
            svc._adj = {
                int(pid): {index(q) for q in qs}
                for pid, qs in state["adjacency"].items()
            }
            svc._next_id = index(state["next_id"])
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(
                f"corrupt snapshot: unreadable field ({type(exc).__name__}: {exc})"
            ) from exc
        if svc.mode not in MODES:
            raise ValueError(f"corrupt snapshot: unknown mode {svc.mode!r}")
        # one vectorised pass; the per-peer scan runs only to name a culprit
        vectors = [v for peer in peers for v in (peer.position, peer.interests)]
        if vectors and not (all(v.ndim == 1 for v in vectors)
                            and np.isfinite(np.concatenate(vectors)).all()):
            bad = next(peer.peer_id for peer in peers
                       if not all(v.ndim == 1 and np.isfinite(v).all()
                                  for v in (peer.position, peer.interests)))
            raise ValueError(
                f"corrupt snapshot: peer {bad}'s position or interests"
                " are not a finite vector"
            )
        svc._peers = {peer.peer_id: peer for peer in peers}
        if len(svc._peers) != len(peers):
            raise ValueError("corrupt snapshot: duplicate peer ids")
        _check_adjacency(svc._peers, svc._adj)
        if svc._peers and svc._next_id <= max(svc._peers):
            raise ValueError(
                f"corrupt snapshot: next_id {svc._next_id} is not above"
                f" live peer {max(svc._peers)}"
            )
        svc._init_live_state()
        svc.full_rematch()
        return svc


def _check_adjacency(peers: dict[int, Peer], adj: dict[int, set[int]]) -> None:
    """One pass over restored adjacency; ``ValueError`` if corrupt."""
    if adj.keys() != peers.keys():
        bare = sorted(peers.keys() - adj.keys())
        if bare:
            raise ValueError(f"corrupt snapshot: peers {bare[:5]} have no adjacency")
        stray = sorted(adj.keys() - peers.keys())
        raise ValueError(f"corrupt snapshot: adjacency of non-peers {stray[:5]}")
    for pid, qs in adj.items():
        for q in qs:
            if q == pid:
                raise ValueError(f"corrupt snapshot: peer {pid} is its own neighbour")
            mine = adj.get(q)
            if mine is None:
                raise ValueError(f"corrupt snapshot: peer {pid} lists non-peer {q}")
            if pid not in mine:
                raise ValueError(f"corrupt snapshot: link {pid} -> {q} is one-sided")
