"""LID — Local Information-based Distributed algorithm (Algorithm 1).

Every node ``i`` keeps four sets over its neighbourhood:

- ``U_i`` — unresolved neighbours (no final answer exchanged yet),
- ``P_i`` — neighbours ``i`` has proposed to (outstanding or locked),
- ``A_i`` — neighbours that proposed to ``i`` (approachers),
- ``K_i`` — locked (matched) neighbours,

and a *weight list*: its neighbours ordered by decreasing edge key
(eq. 9 weights, ties broken by node ids).  The protocol:

1. Propose (``PROP``) to the top ``b_i`` entries of the weight list.
2. A mutual proposal locks the edge at both endpoints (no extra message
   is needed — each endpoint observes the other's ``PROP``).
3. On receiving a rejection (``REJ``) for an outstanding proposal,
   propose to the next unproposed neighbour in weight order.
4. When no proposals are outstanding (``P_i \\ K_i = ∅`` — quota filled
   or candidates exhausted), send ``REJ`` to every remaining neighbour
   in ``U_i`` and terminate.

Lemma 5 (symmetric weights ⇒ no communication cycles) guarantees
termination; Lemmas 3–4 show the locked edges are exactly the locally
heaviest ones, i.e. the LIC edge set, giving the ½ weighted-matching
ratio (Theorem 2) and the ¼(1+1/b_max) satisfaction ratio (Theorem 3).

Implementation notes
--------------------
- Steps 1 and 3 are implemented by a single ``_top_up`` routine ("while
  ``|P_i| < b_i`` and an unproposed unresolved neighbour exists,
  propose to the best one").  After a rejection of an outstanding
  proposal this sends exactly one new ``PROP``; in all other states it
  sends none — precisely the paper's "a new PROP message is sent only
  if a previously asked node has explicitly declined".
- A terminated node has left its receive loop; the simulator discards
  messages addressed to it.  The analysis in §5 shows any such message
  crossed the terminating node's final ``REJ`` broadcast, so the sender
  learns the outcome regardless.  (The scheduler still counts these as
  ``late_messages`` so tests can assert how often it happens.)
- For the lossy-channel extension (A2, paper §7 future work) the node
  supports *polite* termination plus timer-based ``PROP``
  retransmission; see :class:`LidNode` parameters.
- The rules themselves live in :class:`LidProtocol`, which
  :class:`LidNode` and :class:`~repro.core.resilient_lid.ResilientLidNode`
  share; the two nodes differ only in their send primitive, two hooks
  and their fault handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Optional, Sequence

from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.truncation import (
    TruncationReport,
    finalize_truncation,
    round_horizon,
    validate_max_rounds,
)
from repro.core.weights import WeightTable, satisfaction_weights
from repro.distsim.metrics import SimMetrics
from repro.distsim.network import LatencyModel, Network
from repro.distsim.node import ProtocolNode
from repro.distsim.reliable import BackoffPolicy
from repro.distsim.scheduler import Simulator
from repro.distsim.tracing import Trace
from repro.telemetry.spans import Telemetry
from repro.utils.validation import ProtocolError, check_quotas

__all__ = ["LidNode", "LidProtocol", "LidResult", "mutual_locks", "run_lid", "solve_lid"]

PROP = "PROP"
REJ = "REJ"


class LidProtocol:
    """Algorithm 1's rules, shared by every message-level LID node.

    Owns the ``U_i`` / ``P_i`` / ``A_i`` / ``K_i`` sets, the weight-list
    cursor and the protocol statistics.  A concrete node mixes it in
    front of its transport and supplies the send primitive
    :attr:`_transmit`, the :meth:`_on_propose` / :meth:`_on_lock` hooks
    (run after the ``PROP`` send and after the lock, because event
    insertion order fixes the schedule), :attr:`polite`, and its own
    fault handling around :meth:`_handle_prop` / :meth:`_handle_rej`.
    """

    _transmit: Callable[..., None]
    polite = False

    def __init__(self, weight_list: Sequence[int], quota: int, **transport):
        super().__init__(**transport)
        self.weight_list: list[int] = list(weight_list)
        self.quota = int(quota)
        # protocol sets (paper names)
        self.unresolved: set[int] = set()   # U_i
        self.proposed: set[int] = set()     # P_i
        self.approachers: set[int] = set()  # A_i
        self.locked: set[int] = set()       # K_i
        self._pos = 0  # weight-list scan position (next unproposed candidate)
        self.finished = False
        # statistics
        self.props_sent = 0
        self.rejs_sent = 0
        self.anomalies = 0

    def on_start(self) -> None:
        self.unresolved = set(self.weight_list)
        self._process()

    # -- hooks -----------------------------------------------------------

    def _on_propose(self, j: int) -> None:
        """A fresh ``PROP`` to ``j`` has just been sent."""

    def _on_lock(self, j: int) -> None:
        """The edge to ``j`` has just locked."""

    # -- shared message handling ---------------------------------------

    def _handle_prop(self, src: int) -> None:
        """A proposal from an unlocked peer: refused once finished, else recorded."""
        if self.finished:
            # polite mode: we already rejected everyone; answer the
            # late proposal again
            self._reject(src)
            return
        self.approachers.add(src)
        self._process()

    def _handle_rej(self, src: int) -> None:
        """A rejection from an unlocked peer resolves it."""
        if src not in self.unresolved:
            self.anomalies += 1  # duplicate REJ
            return
        self._resolve(src)
        self._process()

    def _resolve(self, j: int) -> None:
        """Drop ``j`` from ``U_i``, ``P_i`` and ``A_i``."""
        self.unresolved.discard(j)
        self.proposed.discard(j)
        self.approachers.discard(j)

    def _reject(self, j: int) -> None:
        self._transmit(j, REJ)
        self.rejs_sent += 1

    # -- Algorithm 1 -----------------------------------------------------

    def _outstanding(self) -> set[int]:
        """``P_i \\ K_i`` — proposals awaiting an answer."""
        return self.proposed - self.locked

    def _propose(self, j: int) -> None:
        self.proposed.add(j)
        self._transmit(j, PROP)
        self.props_sent += 1
        self._on_propose(j)

    def _top_up(self) -> bool:
        """Propose to best unproposed unresolved neighbours up to quota."""
        sent = False
        while len(self.proposed) < self.quota:
            j = self._next_candidate()
            if j is None:
                break
            self._propose(j)
            sent = True
        return sent

    def _next_candidate(self) -> Optional[int]:
        while self._pos < len(self.weight_list):
            j = self.weight_list[self._pos]
            if j in self.unresolved and j not in self.proposed:
                self._pos += 1
                return j
            self._pos += 1
        return None

    def _try_lock(self) -> bool:
        """Lock every mutually proposed edge (lines 12–14)."""
        ready = self._outstanding() & self.approachers
        for v in ready:
            self.locked.add(v)
            self.approachers.discard(v)
            self.unresolved.discard(v)
            self._on_lock(v)
        return bool(ready)

    def _process(self) -> None:
        if self.finished:
            return
        changed = True
        while changed:
            changed = self._try_lock()
            changed = self._top_up() or changed
        if not self._outstanding():
            self._finish()

    def _finish(self) -> None:
        """Lines 15–16: reject all unresolved neighbours and stop.

        The broadcast walks the weight list (not the ``unresolved`` set)
        so the send order is a deterministic function of the instance
        rather than of hash-table internals; schedules — and therefore
        message statistics — stay reproducible across interpreters, and
        the round-batched engine can replay them exactly.
        """
        self.finished = True
        for v in self.weight_list:
            if v in self.unresolved:
                self._reject(v)
        self.unresolved.clear()
        self.approachers.clear()
        if not self.polite:
            self.terminate()


class LidNode(LidProtocol, ProtocolNode):
    """State machine of one LID participant on raw channels.

    Parameters
    ----------
    weight_list:
        Neighbours in strictly decreasing edge-key order (node ``i``'s
        auxiliary *weight list*; see :meth:`WeightTable.weight_list`).
    quota:
        Connection quota ``b_i``.
    polite:
        When ``True`` the node does not hard-terminate: after finishing
        it keeps answering stray ``PROP`` messages with ``REJ``.  This
        is the behaviour required for the retransmission extension under
        message loss; the faithful Algorithm 1 uses ``polite=False``.
    retransmit_timeout:
        When set (virtual time units), outstanding proposals are
        re-sent until answered — the minimal reliability wrapper
        evaluated in experiment A2.  This is the *base* retry delay;
        the schedule is governed by ``backoff``.
    backoff:
        Retry schedule: ``"exponential"`` (default) doubles the delay
        per unanswered retry up to ``backoff_cap``, with up to 10%
        deterministic jitter when ``retransmit_rng`` is given;
        ``"none"`` is the legacy fixed-timer behaviour (every retry
        after exactly ``retransmit_timeout``).
    backoff_cap:
        Upper bound of the exponential delay (default
        ``8 * retransmit_timeout``).
    retransmit_rng:
        Seeded generator for retry jitter (``None`` = no jitter).
        :func:`run_lid` spawns one per node off the run seed.

    Retransmissions are counted in :attr:`retransmits_sent` (and in
    :attr:`SimMetrics.retransmissions`), *separately* from the fresh
    proposals in :attr:`props_sent`, so reliability overhead never
    contaminates the paper's message-complexity statistics.
    """

    _transmit = ProtocolNode.send

    def __init__(
        self,
        weight_list: Sequence[int],
        quota: int,
        polite: bool = False,
        retransmit_timeout: Optional[float] = None,
        backoff: str = "exponential",
        backoff_cap: Optional[float] = None,
        retransmit_rng=None,
    ):
        super().__init__(weight_list, quota)
        self.polite = polite
        self.retransmit_timeout = retransmit_timeout
        if backoff not in ("none", "exponential"):
            raise ValueError(
                f"backoff must be 'none' or 'exponential', got {backoff!r}"
            )
        if backoff_cap is not None and retransmit_timeout is not None:
            if backoff_cap < retransmit_timeout:
                raise ValueError(
                    f"backoff_cap ({backoff_cap}) below retransmit_timeout "
                    f"({retransmit_timeout})"
                )
        self._retry: Optional[BackoffPolicy] = None
        if retransmit_timeout is not None and backoff == "none":
            self._retry = BackoffPolicy.fixed(retransmit_timeout)
        elif retransmit_timeout is not None:
            cap = 8.0 * retransmit_timeout if backoff_cap is None else backoff_cap
            self._retry = BackoffPolicy(
                base=retransmit_timeout, factor=2.0, cap=cap, jitter=0.1, budget=None
            )
        self._retx_rng = retransmit_rng
        self._attempts: dict[int, int] = {}  # per-peer unanswered retries
        self.retransmits_sent = 0

    def on_message(self, src: int, kind: str, payload) -> None:
        if kind == PROP:
            if src in self.locked:
                # duplicate of an already-locked proposal.  A *retry*
                # duplicate (timer retransmission) means the sender never
                # saw our PROP — our lock confirmation was lost — so we
                # re-send it.  Plain duplicates (stale retransmits
                # overtaken by the lock) are ignored, which breaks the
                # would-be PROP ping-pong between locked partners.  In
                # the faithful reliable-channel protocol neither case
                # can happen except from Byzantine peers.
                if self.retransmit_timeout is not None and payload == "retry":
                    self.send(src, PROP)
                    self._count_retransmit()
                else:
                    self.anomalies += 1
                return
            self._handle_prop(src)
        elif kind == REJ:
            if src in self.locked:
                # a locked partner never rejects (only Byzantine peers do)
                self.anomalies += 1
                return
            self._handle_rej(src)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"LID node got unknown message kind {kind!r}")

    def on_timer(self, tag) -> None:
        # retransmission: tag is the neighbour the proposal went to
        if self.finished:
            return
        j = tag
        if j in self.proposed and j not in self.locked:
            self.send(j, PROP, payload="retry")
            self._count_retransmit()
            self._attempts[j] = self._attempts.get(j, 0) + 1
            self.set_timer(self._retx_delay(j), j)

    def _on_propose(self, j: int) -> None:
        if self._retry is not None:
            self.set_timer(self._retx_delay(j), j)

    def _count_retransmit(self) -> None:
        self.retransmits_sent += 1
        if self.sim is not None:
            self.sim.metrics.retransmissions += 1

    def _retx_delay(self, j: int) -> float:
        """Delay until the next retry of the proposal to ``j``."""
        assert self._retry is not None
        return self._retry.delay(self._attempts.get(j, 0), self._retx_rng)


@dataclass
class LidResult:
    """Outcome of a distributed LID run.

    Attributes
    ----------
    matching:
        The locked edge set (validated symmetric before construction).
    metrics:
        Simulator accounting (message counts, virtual end time, events).
    nodes:
        The node objects, exposing per-node statistics.
    late_messages:
        Deliveries discarded because the receiver had terminated.
    truncation:
        The shared :class:`~repro.core.truncation.TruncationReport`
        (structural fields; ``solve_lid`` fills the quality fields for
        truncated runs).
    """

    matching: Matching
    metrics: SimMetrics
    nodes: list[LidNode]
    late_messages: int
    truncation: Optional[TruncationReport] = None

    @property
    def prop_messages(self) -> int:
        """Total ``PROP`` messages sent."""
        return self.metrics.sent_by_kind.get(PROP, 0)

    @property
    def rej_messages(self) -> int:
        """Total ``REJ`` messages sent."""
        return self.metrics.sent_by_kind.get(REJ, 0)

    @property
    def rounds(self) -> float:
        """Virtual quiescence time (asynchronous rounds under unit latency)."""
        return self.metrics.end_time

    @property
    def causal_rounds(self) -> int:
        """Longest causal message chain — exact asynchronous round count,
        independent of the latency model."""
        return self.metrics.max_depth


def mutual_locks(
    nodes: Sequence, members: Optional[Collection[int]] = None
) -> tuple[Matching, list[tuple[int, int]]]:
    """Edges locked at both endpoints, and the locks held on one side only.

    Walks ``nodes`` in id order, restricted to ``members`` when given; a
    lock on a partner outside ``members`` is ignored.  One-sided locks —
    on an out-of-range id, or not returned by the partner — come back in
    node order, so a caller that treats asymmetry as an error can name
    the first.  A truncated run releases them: the partner's confirming
    ``PROP`` was still in flight at the round cap (the array engines'
    ``lk & lk[rev]``).
    """
    n = len(nodes)
    matching = Matching(n)
    one_sided: list[tuple[int, int]] = []
    for i, node in enumerate(nodes):
        if members is not None and i not in members:
            continue
        for j in node.locked:
            in_range = 0 <= j < n
            if in_range and members is not None and j not in members:
                continue
            if in_range and i in nodes[j].locked:
                if i < j:
                    matching.add(i, j)
            else:
                one_sided.append((i, j))
    return matching, one_sided


def run_lid(
    wt: WeightTable,
    quotas: Sequence[int],
    latency: Optional[LatencyModel] = None,
    fifo: bool = True,
    seed: int = 0,
    trace: Optional[Trace] = None,
    drop_filter=None,
    retransmit_timeout: Optional[float] = None,
    backoff: str = "exponential",
    enforce_links: bool = True,
    max_events: Optional[int] = None,
    max_rounds: Optional[int] = None,
    telemetry=None,
    probe=None,
) -> LidResult:
    """Execute LID over a weight table on the discrete-event simulator.

    Parameters mirror the simulator substrate; the defaults give the
    faithful Algorithm 1 over reliable FIFO unit-latency channels.  Any
    latency model / FIFO setting yields the *same* matching (the LIC edge
    set) — a consequence of Lemmas 3–6 that the test suite checks
    property-style.

    With ``retransmit_timeout`` set, retries follow a capped
    exponential ``backoff`` schedule with per-node seeded jitter
    (``backoff="none"`` restores the legacy fixed timer); see
    :class:`LidNode`.

    ``max_rounds=k`` truncates the run after ``k`` delivery waves (the
    simulator stops at :func:`~repro.core.truncation.round_horizon`):
    no new proposal wave is scheduled past the cap, the in-flight wave
    is dropped, and one-sided locks are released at extraction, keeping
    only the mutual ones (see :mod:`repro.core.truncation`).  ``None``
    runs to convergence, byte-identical to before the knob existed.

    ``telemetry`` is a :class:`repro.telemetry.Telemetry` (or
    :data:`~repro.telemetry.NULL` to disable timing entirely); when
    omitted a private instance still populates
    ``metrics.phase_seconds`` with the ``build_weights`` / ``sim_loop``
    / ``extract`` phases.  ``probe`` is an optional
    :class:`~repro.telemetry.probes.ConvergenceProbe`; see
    :meth:`Simulator.run` for the tick convention (sampling never
    perturbs the run).

    Returns
    -------
    LidResult
        Matching plus message/time accounting.
    """
    from repro.utils.rng import spawn_rng

    n = wt.n
    check_quotas(quotas, n)
    max_rounds = validate_max_rounds(max_rounds)
    polite = retransmit_timeout is not None
    tel = telemetry if telemetry is not None else Telemetry()
    mark = tel.mark()
    with tel.span("build_weights"):
        nodes = [
            LidNode(
                wt.weight_list(i),
                quotas[i],
                polite=polite,
                retransmit_timeout=retransmit_timeout,
                backoff=backoff,
                retransmit_rng=(
                    spawn_rng(seed, "lid-retransmit", str(i))
                    if retransmit_timeout is not None and backoff != "none"
                    else None
                ),
            )
            for i in range(n)
        ]
        network = Network(
            n,
            latency=latency,
            fifo=fifo,
            links=wt.edges() if enforce_links else None,
            drop_filter=drop_filter,
            seed=seed,
        )
        sim = Simulator(network, nodes, trace=trace)
    with tel.span("sim_loop"):
        metrics = sim.run(
            max_events=max_events,
            max_time=round_horizon(max_rounds),
            probe=probe,
        )
    with tel.span("extract"):
        if max_rounds is None:
            for i, node in enumerate(nodes):
                if not node.finished:
                    raise ProtocolError(
                        f"node {i} did not finish (Lemma 5 violated?)"
                    )
        matching, one_sided = mutual_locks(nodes)
        if max_rounds is None and one_sided:
            i, j = one_sided[0]
            raise ProtocolError(
                f"asymmetric lock: {i} locked {j} but not vice versa"
            )
    metrics.phase_seconds = tel.phase_seconds(since=mark)
    return LidResult(
        matching=matching,
        metrics=metrics,
        nodes=nodes,
        late_messages=sim.late_messages,
        truncation=TruncationReport(
            max_rounds=max_rounds,
            rounds=int(metrics.end_time),
            converged=(sim.pending_events() == 0),
            released_locks=len(one_sided),
        ),
    )


def solve_lid(
    ps: PreferenceSystem,
    latency: Optional[LatencyModel] = None,
    fifo: bool = True,
    seed: int = 0,
    trace: Optional[Trace] = None,
    backend: str = "reference",
    drop_filter=None,
    retransmit_timeout: Optional[float] = None,
    max_rounds: Optional[int] = None,
    telemetry=None,
    probe=None,
) -> tuple[LidResult, WeightTable]:
    """End-to-end LID pipeline for a preference system.

    Builds the eq.-9 weights, runs LID, validates the result against the
    instance, and returns ``(result, weight_table)``.  By Theorem 3 the
    matching's full satisfaction is a ¼(1+1/b_max)-approximation of the
    maximising-satisfaction b-matching optimum.

    ``backend="fast"`` replays the default channel model (reliable FIFO
    unit latency — the faithful Algorithm 1 schedule) through the
    round-batched :func:`repro.core.fast_lid.lid_matching_fast` engine,
    returning a bit-identical matching and message statistics at a
    fraction of the cost.  It therefore rejects a custom ``latency`` /
    ``trace`` / non-FIFO configuration **and any fault-injected run**
    (``drop_filter`` / ``retransmit_timeout``): round batching is only
    exact when every sent message is delivered exactly one round later,
    which loss and retransmission timers break.  Such runs raise
    :class:`ValueError` naming the fallback — re-run with
    ``backend="reference"``, the event-by-event simulator, which
    executes them faithfully (the fallback is tested end-to-end in
    ``tests/core/test_backend.py``).  The fast result mirrors
    :class:`LidResult` except that per-node statistics live in
    ``props_sent`` / ``rejs_sent`` arrays rather than node objects.

    ``max_rounds=k`` runs the round-truncated almost-stable variant on
    whichever backend is selected — the identical feasible partial
    matching on all of them — and fills the quality fields of
    ``result.truncation`` (blocking-pair count, satisfaction ratio vs
    the converged LIC matching); see :mod:`repro.core.truncation`.
    """
    from repro.core.backend import resolve_backend_name

    backend = resolve_backend_name(backend)
    if backend == "fast":
        if latency is not None or trace is not None or not fifo:
            raise ValueError(
                "backend='fast' replays only the default reliable FIFO "
                "unit-latency channels; use backend='reference' for custom "
                "latency, tracing, or non-FIFO runs"
            )
        if drop_filter is not None or retransmit_timeout is not None:
            raise ValueError(
                "backend='fast' cannot replay fault-injected runs: "
                "message loss and retransmission timers break the one-round "
                "delivery assumption of the round-batched engine; use "
                "backend='reference' (the event-by-event simulator) for "
                "drop_filter / retransmit_timeout runs"
            )
        from repro.core.fast import FastInstance
        from repro.core.fast_lid import lid_matching_fast

        fi = FastInstance.from_preference_system(ps)
        result = lid_matching_fast(
            fi, max_rounds=max_rounds, telemetry=telemetry, probe=probe
        )
        result.matching.validate(ps)
        wt = fi.weight_table()
        if max_rounds is not None:
            result.truncation = finalize_truncation(
                result.truncation, ps, result.matching, wt=wt
            )
        return result, wt
    wt = satisfaction_weights(ps)
    result = run_lid(
        wt,
        ps.quotas,
        latency=latency,
        fifo=fifo,
        seed=seed,
        trace=trace,
        drop_filter=drop_filter,
        retransmit_timeout=retransmit_timeout,
        max_rounds=max_rounds,
        telemetry=telemetry,
        probe=probe,
    )
    result.matching.validate(ps)
    if max_rounds is not None:
        result.truncation = finalize_truncation(
            result.truncation, ps, result.matching, wt=wt
        )
    return result, wt
