"""Dynamic LID — a distributed protocol for churning overlays (§7).

The published Algorithm 1 is one-shot: it assumes a static graph and
static preference lists.  The conclusion asks whether "the same greedy
strategy ... can tackle" joins and leaves.  :mod:`repro.overlay.churn`
answers centrally (exact incremental repair); this module answers
*distributedly*: a message-passing protocol whose quiescent state is
always the greedy (LIC/LID) matching of the *current* overlay, and that
re-converges after each membership event through purely local
negotiation.

Protocol sketch
---------------
Each node keeps its private preference order over current neighbours
and derives its side of every eq.-9 weight locally
(``ΔS̄_i^j = (1 - R_i(j)/ℓ_i)/b_i``).  Weight halves are exchanged so
both endpoints agree on the symmetric key ``(ΔS̄_i^j + ΔS̄_j^i, i, j)``.

Messages:

- ``HELLO(δ)``   — introduce my weight half (start-up and joins),
- ``UPDATE(δ)``  — my weight half changed (my list length changed
  because a neighbour joined/left),
- ``PROP``       — I currently *want* you (you are among my best ``b``
  candidates given my locks),
- ``ACC`` / ``REJ`` — answer to a ``PROP``,
- ``RELEASE``    — drop our lock (I locked someone strictly better, or
  I answered your stale ``ACC``),
- ``BYE``        — I am leaving the overlay.

A node *wants* ``j`` when it has quota slack or ``j``'s key beats its
lightest locked partner; a mutual want locks the edge (the heavier
partner displaced by ``lock`` is released and renegotiates).  Wants are
discovered by proposing: a ``REJ`` parks the target in a ``refused``
set, which is cleared whenever the node's own state changes — the
standard device that lets either side of a *newly* blocking edge
re-open negotiation, while keeping message counts finite (every clear
is triggered by a lock/release/update, and locks strictly improve the
global sorted-key profile, which bounds the number of state changes).

Convergence
-----------
The greedy matching is the unique configuration with no *weighted
blocking edge* (see :mod:`repro.overlay.churn` for the uniqueness
argument), and it is exactly the quiescent states of this protocol:
quiescent means no ``PROP`` would be sent, i.e. no mutual want, i.e. no
blocking edge.  The test-suite verifies quiescence *and* equality with
the centralised LIC result after every event of randomised churn
sessions, under FIFO channels with arbitrary latency.  (FIFO is
required: a ``PROP`` must not overtake the ``RELEASE`` that precedes
it on the same channel.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.lid import mutual_locks
from repro.core.matching import Matching
from repro.distsim.network import LatencyModel, Network
from repro.distsim.node import ProtocolNode
from repro.distsim.scheduler import Simulator
from repro.utils.validation import ProtocolError

__all__ = ["DynamicLidNode", "DynamicLidHarness", "ChurnEventStats"]

HELLO = "HELLO"
UPDATE = "UPDATE"
PROP = "PROP"
ACC = "ACC"
REJ = "REJ"
RELEASE = "RELEASE"
BYE = "BYE"


class DynamicLidNode(ProtocolNode):
    """One participant of the dynamic greedy-matching protocol.

    Parameters
    ----------
    pref_order:
        This node's private preference order over its *current*
        neighbours (best first).  Mutated by joins/leaves through
        :meth:`insert_preference` / internal ``BYE`` handling.
    quota:
        Connection quota ``b_i`` (fixed).
    """

    def __init__(self, pref_order: Sequence[int], quota: int):
        super().__init__()
        self.pref_order: list[int] = list(pref_order)
        self.quota = int(quota)
        self.their_delta: dict[int, float] = {}
        self.locked: set[int] = set()
        self.outstanding: set[int] = set()
        self.refused: set[int] = set()
        self.leaving = False
        # statistics
        self.msg_counts: dict[str, int] = {}

    # -- local weight computation ---------------------------------------

    def my_delta(self, j: int) -> float:
        """My half of the eq.-9 weight for neighbour ``j`` (private)."""
        ell = len(self.pref_order)
        rank = self.pref_order.index(j)
        return (1.0 - rank / ell) / self.quota if self.quota else 0.0

    def key(self, j: int):
        """The shared strict-total-order key of edge ``(me, j)``."""
        w = self.my_delta(j) + self.their_delta[j]
        a, b = (self.node_id, j) if self.node_id < j else (j, self.node_id)
        return (w, a, b)

    def _known(self, j: int) -> bool:
        return j in self.their_delta and j in self.pref_order

    # -- protocol entry points --------------------------------------------

    def on_start(self) -> None:
        for j in self.pref_order:
            self._tell(j, HELLO, self.my_delta(j))

    def on_message(self, src: int, kind: str, payload) -> None:
        if self.leaving:
            return  # final BYEs already sent; ignore stragglers
        if kind == BYE:
            self._forget(src)
            self._broadcast_update()
            self._state_changed()
        elif kind == HELLO:
            if src not in self.pref_order:
                # joiner announced before our local insert: buffer is not
                # needed because the harness inserts before starting it
                raise ProtocolError(
                    f"{self.node_id} got HELLO from unranked {src}"
                )
            self.their_delta[src] = float(payload)
            self._state_changed()
        elif kind == UPDATE:
            if src in self.pref_order:
                self.their_delta[src] = float(payload)
                self.refused.discard(src)
                self._state_changed()
        elif kind == PROP:
            if not self._known(src):
                return  # cannot happen under FIFO (HELLO precedes PROP)
            self.refused.discard(src)
            if src in self.locked:
                # the peer proposing means it does NOT consider us locked
                # (its lock fell to a RELEASE of an older lock instance);
                # re-confirm so it can complete the handshake
                self._tell(src, ACC)
                return
            if self._wants(src):
                # a crossing proposal of ours doubles as the peer's ACC
                self.outstanding.discard(src)
                self._lock(src)
                self._tell(src, ACC)
                self._state_changed()
            else:
                self._tell(src, REJ)
        elif kind == ACC:
            if src in self.locked:
                self.outstanding.discard(src)
                return
            if src in self.outstanding:
                self.outstanding.discard(src)
                if self._known(src) and self._wants(src):
                    self._lock(src)
                    self._state_changed()
                else:
                    self._tell(src, RELEASE)
            else:
                # stale ACC (answers a proposal consumed by an earlier
                # lock instance): refuse — locking here without a live
                # handshake is exactly what creates phantom half-locks
                self._tell(src, RELEASE)
        elif kind == REJ:
            self.outstanding.discard(src)
            self.refused.add(src)
            self._re_evaluate()
        elif kind == RELEASE:
            if src in self.locked:
                self.locked.discard(src)
                self._state_changed()
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"dynamic LID got unknown kind {kind!r}")

    # -- churn API ---------------------------------------------------------

    def start_leave(self) -> None:
        """Leave the overlay: release partners, say BYE, stop."""
        self.leaving = True
        for j in list(self.locked):
            self._tell(j, RELEASE)
        for j in self.pref_order:
            self._tell(j, BYE)
        self.locked.clear()
        self.outstanding.clear()
        self.terminate()

    def insert_preference(self, v: int, position: int) -> None:
        """Application callback: rank new neighbour ``v`` at ``position``.

        Called by the harness when ``v`` joins knowing this node.  The
        list-length change re-scales all our weight halves, so an
        ``UPDATE`` goes to every existing neighbour and a ``HELLO`` to
        the newcomer.
        """
        if v in self.pref_order:
            raise ProtocolError(f"{self.node_id} already ranks {v}")
        position = max(0, min(position, len(self.pref_order)))
        self.pref_order.insert(position, v)
        self.refused.clear()
        self._broadcast_update(exclude=v)
        self._tell(v, HELLO, self.my_delta(v))

    # -- internals ----------------------------------------------------------

    def _tell(self, dst: int, kind: str, payload=None) -> None:
        self.msg_counts[kind] = self.msg_counts.get(kind, 0) + 1
        self.send(dst, kind, payload)

    def _forget(self, v: int) -> None:
        if v in self.pref_order:
            self.pref_order.remove(v)
        self.their_delta.pop(v, None)
        self.locked.discard(v)
        self.outstanding.discard(v)
        self.refused.discard(v)

    def _broadcast_update(self, exclude: Optional[int] = None) -> None:
        for j in self.pref_order:
            if j != exclude:
                self._tell(j, UPDATE, self.my_delta(j))

    def _wants(self, j: int) -> bool:
        if self.quota == 0 or j in self.locked or not self._known(j):
            return False
        if len(self.locked) < self.quota:
            return True
        worst = min(self.locked, key=self.key)
        return self.key(j) > self.key(worst)

    def _lock(self, j: int) -> None:
        if len(self.locked) >= self.quota:
            worst = min(self.locked, key=self.key)
            self.locked.discard(worst)
            self._tell(worst, RELEASE)
        self.locked.add(j)

    def _state_changed(self) -> None:
        """My lock-set or weight view changed: retry and renegotiate."""
        self.refused.clear()
        self._re_evaluate()

    def _re_evaluate(self) -> None:
        """Propose to the best candidates my quota still justifies."""
        if self.leaving or self.quota == 0:
            return
        candidates = sorted(
            (j for j in self.pref_order if self._known(j)),
            key=self.key,
            reverse=True,
        )
        chosen: list[int] = []
        for c in candidates:
            if len(chosen) >= self.quota:
                break
            if c in self.locked:
                chosen.append(c)
            elif c not in self.refused:
                chosen.append(c)
        for c in chosen:
            if c not in self.locked and c not in self.outstanding:
                self.outstanding.add(c)
                self._tell(c, PROP)


@dataclass
class ChurnEventStats:
    """Per-event accounting returned by the harness."""

    event: str
    node: int
    messages: int
    events_processed: int
    virtual_time: float


class DynamicLidHarness:
    """Drives :class:`DynamicLidNode` populations through churn sessions.

    The harness owns the simulator/network pair, injects joins and
    leaves, runs the system to quiescence after each event, and exposes
    the mutual-lock matching (in stable *external* ids) for
    verification.

    Parameters
    ----------
    pref_orders:
        Initial preference order per node (index = node id).
    quotas:
        Quota per node.
    latency, seed:
        Passed to the network (FIFO is forced — see module docstring).
    capacity:
        Maximum total nodes over the session (headroom for joins).
    """

    def __init__(
        self,
        pref_orders: Sequence[Sequence[int]],
        quotas: Sequence[int],
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        capacity: Optional[int] = None,
    ):
        n = len(pref_orders)
        if capacity is None:
            capacity = 4 * n + 16
        links = set()
        for i, order in enumerate(pref_orders):
            for j in order:
                links.add((min(i, j), max(i, j)))
        self.network = Network(
            capacity, latency=latency, fifo=True, links=links, seed=seed
        )
        self.nodes: list[DynamicLidNode] = [
            DynamicLidNode(order, q) for order, q in zip(pref_orders, quotas)
        ]
        self.sim = Simulator(self.network, self.nodes)
        self.alive: set[int] = set(range(n))
        self._msg_mark = 0
        self._evt_mark = 0

    # -- session control ----------------------------------------------------

    def run_to_quiescence(self, label: str = "init", node: int = -1) -> ChurnEventStats:
        """Drain the event queue; returns accounting since the last call."""
        self.sim.run(max_events=2_000_000)
        sent = self.sim.metrics.total_sent
        events = self.sim.metrics.events
        stats = ChurnEventStats(
            event=label,
            node=node,
            messages=sent - self._msg_mark,
            events_processed=events - self._evt_mark,
            virtual_time=self.sim.now,
        )
        self._msg_mark = sent
        self._evt_mark = events
        return stats

    def leave(self, node_id: int) -> ChurnEventStats:
        """Node ``node_id`` leaves; run the repair to quiescence."""
        if node_id not in self.alive:
            raise KeyError(f"node {node_id} is not alive")
        self.alive.discard(node_id)
        self.nodes[node_id].start_leave()
        return self.run_to_quiescence("leave", node_id)

    def join(
        self,
        pref_order: Sequence[int],
        quota: int,
        positions: dict[int, int],
    ) -> tuple[int, ChurnEventStats]:
        """A new node joins knowing ``pref_order`` (alive node ids).

        ``positions[j]`` is where neighbour ``j`` privately ranks the
        newcomer in its own list (the application-layer metric answer).
        """
        unknown = set(pref_order) - self.alive
        if unknown:
            raise KeyError(f"unknown neighbours {sorted(unknown)}")
        if set(positions) != set(pref_order):
            raise ValueError("positions must cover exactly the neighbours")
        node = DynamicLidNode(pref_order, quota)
        if len(self.nodes) + 1 > self.network.n:
            self.network.grow(2 * self.network.n)
        new_id = self.sim.add_node(node, start=False)
        self.nodes.append(node)  # Simulator copies the node list at init
        assert len(self.nodes) == new_id + 1
        self.alive.add(new_id)
        for j in pref_order:
            self.network.add_link(new_id, j)
            self.nodes[j].insert_preference(new_id, positions[j])
        node.on_start()
        return new_id, self.run_to_quiescence("join", new_id)

    # -- inspection --------------------------------------------------------

    def matching(self) -> Matching:
        """Mutual-lock matching over the full id space (validated symmetric)."""
        m, one_sided = mutual_locks(self.nodes)
        if one_sided:
            i, j = one_sided[0]
            raise ProtocolError(f"asymmetric lock {i} ~ {j} at quiescence")
        return m

    def half_locks(self) -> list[tuple[int, int]]:
        """Asymmetric locks (must be empty at quiescence).

        A departed node holds no locks (:meth:`DynamicLidNode.start_leave`
        clears them), so a live node's lock on it is one-sided too.
        """
        return mutual_locks(self.nodes)[1]
