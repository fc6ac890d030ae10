"""Dynamic overlays: joins, leaves and incremental repair (paper §7).

The published LID "does not handle dynamicity, i.e. joins/leaves of
peers"; the conclusion asks whether "the same greedy strategy ... can
tackle such issues".  This module answers constructively:

**Observation.**  The LIC/LID output is exactly the matching with *no
weighted blocking edge* (Lemma 4/6 certificate,
:func:`repro.core.analysis.weighted_blocking_edges`) — i.e. the unique
stable b-matching of the weight-list preference system.  Uniqueness
follows by the standard heaviest-edge induction: the globally heaviest
edge belongs to every such matching, and so on down the (strict) key
order.  Therefore, after any local change (a peer joins or leaves —
which also re-scales the eq.-9 weights of its neighbours, whose list
lengths change), the greedy matching of the *new* instance can be
reached from the surviving matching by resolving weighted blocking
edges — a purely local process radiating from the changed region.

:class:`DynamicOverlay` maintains a peer population, its potential
links and the current matching; :meth:`DynamicOverlay.leave` /
:meth:`DynamicOverlay.join` apply churn events and repair
incrementally, returning :class:`RepairStats` whose cost the A3 bench
compares against the from-scratch re-run (the results are verified
*identical* — the repair is exact, not heuristic).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable

import numpy as np

from repro.core.fast import FastInstance, lic_matching_fast
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable
from repro.overlay.builder import RankedLists, build_preference_system
from repro.overlay.metrics import MetricAssignment, SuitabilityMetric
from repro.overlay.peer import Peer
from repro.overlay.topology import Topology
from repro.utils.validation import (
    InvalidInstanceError,
    InvalidMatchingError,
    ProtocolError,
)

__all__ = ["RepairStats", "DynamicOverlay", "WeightCache", "greedy_repair"]


@dataclass
class RepairStats:
    """Cost accounting of one incremental repair.

    Attributes
    ----------
    resolutions:
        Number of weighted-blocking-edge resolutions (connection
        changes) performed.
    dirty_nodes:
        Number of distinct nodes the repair wave touched.
    edges_scanned:
        Total candidate-edge examinations — the work measure compared
        against a full re-run's ``m log m`` scan in bench A3.
    weights_reused:
        Eq.-9 edge weights taken from the :class:`WeightCache` instead
        of being recomputed.
    weights_recomputed:
        Eq.-9 edge weights actually recomputed for this event.
    """

    resolutions: int = 0
    dirty_nodes: int = 0
    edges_scanned: int = 0
    weights_reused: int = 0
    weights_recomputed: int = 0


class WeightCache:
    """A :class:`DynamicOverlay`'s eq.-9 weights, kept in place under churn.

    Keys are external peer-id pairs ``(min_pid, max_pid)`` and values
    the eq.-9 weights of the :class:`~repro.overlay.builder.RankedLists`
    the cache reads.  A churn event changes the lists (hence list
    lengths, ranks and clamped quotas) of the joining, leaving or moving
    peer and its neighbours only; every other edge keeps its exact
    weight.  :meth:`refresh` therefore recomputes only the edges
    incident to the peers an event changed, a leaver's edges are popped
    by :meth:`drop`, and nothing else is touched.

    Recomputed values use the scalar arithmetic of
    :func:`repro.core.satisfaction.delta_static` (lower-id side first)
    and the bulk fill uses :class:`repro.core.fast.FastInstance`; both
    are bit-identical to a fresh
    :func:`~repro.core.weights.satisfaction_weights` build.

    With :meth:`key` and :meth:`neighbors` the cache is also the weight
    view :func:`greedy_repair` reads.
    """

    __slots__ = ("_w", "_lists")

    def __init__(self, lists: RankedLists) -> None:
        self._w: dict[tuple[int, int], float] = {}
        self._lists = lists

    def __len__(self) -> int:
        return len(self._w)

    def clear(self) -> None:
        """Drop all cached weights (next refresh bulk-fills)."""
        self._w.clear()

    def seed(self, fi: FastInstance, ids: list[int]) -> None:
        """Warm the cache from an already-lowered :class:`FastInstance`."""
        self._w = {
            (ids[a], ids[b]): w
            for a, b, w in zip(fi.i.tolist(), fi.j.tolist(), fi.w.tolist())
        }

    def drop(self, pid: int, neighbours: Iterable[int]) -> None:
        """Pop the edges of a departing peer."""
        for q in neighbours:
            self._w.pop((pid, q) if pid < q else (q, pid), None)

    def refresh(self, changed: "set[int] | frozenset[int]") -> tuple[int, int]:
        """Bring the weights up to date in place; returns ``(reused, recomputed)``.

        ``changed`` holds the peers whose lists may have changed since
        the previous refresh; every edge touching one of them is
        recomputed and the rest are reused.  An empty store is filled
        whole and reports ``(0, m)``.
        """
        lists, w = self._lists, self._w
        if not w:
            changed = lists.peers()
        recomputed = 0
        for p in changed:
            if p not in lists:
                continue
            ell_p, b_p = lists.length(p), lists.quota(p)
            for r_p, q in enumerate(lists.ranked(p)):
                if q < p and q in changed:
                    continue  # recomputed from q's side
                d_p = (1.0 - r_p / ell_p) / b_p
                d_q = (1.0 - lists.rank(q, p) / lists.length(q)) / lists.quota(q)
                if p < q:
                    w[(p, q)] = d_p + d_q
                else:
                    w[(q, p)] = d_q + d_p
                recomputed += 1
        return len(w) - recomputed, recomputed

    # -- the weight view greedy_repair reads -------------------------------

    def key(self, a: int, b: int) -> tuple[float, int, int]:
        """Total-order key ``(w, min, max)`` of edge ``(a, b)``."""
        if b < a:
            a, b = b, a
        return (self._w[(a, b)], a, b)

    def neighbors(self, pid: int) -> Iterable[int]:
        """``pid``'s overlay neighbours."""
        return self._lists.neighbors(pid)


#: bars of the repair loop: below every edge key (spare quota) and above
#: every edge key (a node with quota 0 takes nothing)
_SPARE = (float("-inf"),)
_NEVER = (float("inf"),)

#: resolutions after which a repair is declared non-convergent; the
#: potential argument below keeps every real repair far under it
_MAX_STEPS = 1_000_000


def greedy_repair(
    wt: "WeightTable | WeightCache",
    quota: Callable[[int], int],
    partners: dict[int, set[int]],
    dirty: set[int],
) -> RepairStats:
    """Restore the no-weighted-blocking-edge fixpoint from a local change.

    Repeatedly resolves the heaviest blocking edge incident to the dirty
    region: the edge is added, endpoints over quota drop their lightest
    partner, which joins the dirty region, until no blocking edge
    remains.

    ``wt`` is any weight view with ``key`` and ``neighbors`` — a
    :class:`DynamicOverlay`'s :class:`WeightCache` or a
    :class:`WeightTable` —, ``quota`` gives a node's clamped quota,
    ``partners`` maps every node to its partner set and is edited in
    place, and ``dirty`` holds the nodes to start from; it is extended
    in place to the region the repair touched.

    Candidates sit in a max-heap keyed by the total order ``(w, min,
    max)`` and are re-checked when popped; after a resolution only the
    nodes that lost a partner or just joined the dirty region are
    rescanned.

    Correctness: an edge blocks iff its key beats the *bar* of both
    endpoints — below every key while the node has spare quota, else
    its lightest partner's key.  So ``dirty`` must hold every node whose
    edges, quota or partners changed, and every node matched to one
    whose edges changed: only their bars move, and a moved key has a
    dirty endpoint.  Each resolution dirties every node it touches.  A
    node that gains a partner only wants *less*, so its edges can only
    stop blocking (caught when popped); an edge can start blocking only
    at a node that lost a partner, which is rescanned.
    Termination: weight keys are a strict total order, and each
    resolution strictly improves the lexicographic profile of both
    endpoints (standard acyclic-potential argument for globally ranked
    preferences).

    Robustness (the contract the long-lived service relies on):

    - A partner ``wt`` holds no edge to — a departed peer or a
      non-neighbour — and a node the repair reaches that has no partner
      set are corrupt input: the repair raises
      :class:`~repro.utils.validation.InvalidMatchingError` when it
      meets one, not a bare ``KeyError``.  Churn never produces either:
      a leave drops the leaver's partnerships before the repair runs.
    - The repair always runs to the no-blocking-edge fixpoint: the
      unique LIC matching of the current weights, given that every
      blocking edge starts at a dirty node.  A run past ``_MAX_STEPS``
      resolutions would break the potential argument and raises
      :class:`~repro.utils.validation.ProtocolError`.
    """
    stats = RepairStats()
    key, neighbours = wt.key, wt.neighbors
    # bar[v]: the key an edge at v must beat for v to take it — below
    # every key while v has spare quota, else its lightest partner's key
    bar: dict[int, tuple] = {}

    def partners_of(v: int) -> set[int]:
        try:
            return partners[v]
        except KeyError:
            raise InvalidMatchingError(f"peer {v} holds no partner set") from None

    def bar_of(v: int) -> tuple:
        if v not in bar:
            mine = partners_of(v)
            if len(mine) < quota(v):
                bar[v] = _SPARE
            else:
                try:
                    bar[v] = min((key(v, c) for c in mine), default=_NEVER)
                except KeyError:
                    raise InvalidMatchingError(
                        f"peer {v} is matched across a non-edge:"
                        f" partners {sorted(mine)}"
                    ) from None
        return bar[v]

    heap: list[tuple[float, int, int]] = []

    def scan(v: int) -> None:
        mine = partners_of(v)
        for u in neighbours(v):
            stats.edges_scanned += 1
            if u in mine:
                continue
            k = key(v, u)
            if bar_of(v) < k and bar_of(u) < k:
                # negated: heapq pops the smallest key, we want the heaviest
                heappush(heap, (-k[0], -k[1], -k[2]))

    for v in dirty:
        scan(v)
    while heap:
        nw, na, nb = heappop(heap)
        i, j = -na, -nb
        k = (-nw, i, j)
        if j in partners[i] or not (bar_of(i) < k and bar_of(j) < k):
            continue  # resolved or outbid since it was pushed
        rescan = []
        for v in (i, j):
            lightest = bar_of(v)
            if lightest is not _SPARE:
                # at quota: drop the lightest partner
                _, a, b = lightest
                worst = b if a == v else a
                partners[v].discard(worst)
                partners_of(worst).discard(v)
                bar.pop(worst, None)
                dirty.add(worst)
                rescan.append(worst)
            bar.pop(v)
        partners[i].add(j)
        partners[j].add(i)
        for v in (i, j):
            if v not in dirty:
                dirty.add(v)
                rescan.append(v)
        stats.resolutions += 1
        if stats.resolutions > _MAX_STEPS:  # pragma: no cover - safety valve
            raise ProtocolError("repair did not converge; potential argument violated?")
        for v in rescan:
            scan(v)
    stats.dirty_nodes = len(dirty)
    return stats


class DynamicOverlay:
    """A churning overlay with an incrementally maintained greedy matching.

    Peers keep stable external ids.  The invariant after construction
    and after every churn event is::

        self.matching == LIC(current instance)   # checked in tests

    The instance stays alive between events in external-id space:
    :class:`~repro.overlay.builder.RankedLists` updated by bisection, a
    :class:`WeightCache` refreshed in place for the peers an event
    changed, and :func:`greedy_repair` running on the partner sets
    directly; full rematches use the array-backed
    :func:`~repro.core.fast.lic_matching_fast`.  :meth:`instance`
    compacts the active peers from scratch — the authority the tests
    and the service's differential checks compare against (see
    ``docs/performance.md``).

    Parameters
    ----------
    topology, peers, metric:
        As for :func:`repro.overlay.builder.build_preference_system`.
    """

    def __init__(
        self,
        topology: Topology,
        peers: list[Peer],
        metric: SuitabilityMetric | MetricAssignment,
    ):
        self.metric = metric
        self._peers: dict[int, Peer] = {p.peer_id: p for p in peers}
        if len(self._peers) != len(peers):
            raise InvalidInstanceError("duplicate peer ids")
        self._adj: dict[int, set[int]] = {
            p.peer_id: set() for p in peers
        }
        for i, j in topology.edges():
            self._adj[peers[i].peer_id].add(peers[j].peer_id)
            self._adj[peers[j].peer_id].add(peers[i].peer_id)
        if topology.positions is not None:
            for i, p in enumerate(peers):
                p.position = topology.positions[i]
        self._next_id = max(self._peers, default=-1) + 1
        self._init_live_state()
        self.full_rematch()

    def _init_live_state(self) -> None:
        """Empty ranked lists and weight store over the live peers."""
        self._lists = RankedLists(self.metric, self._peers)
        self._wcache = WeightCache(self._lists)

    # -- id space ---------------------------------------------------------

    def active_ids(self) -> list[int]:
        """Sorted external ids of active peers."""
        return sorted(self._peers)

    def _compact_instance(self) -> tuple[PreferenceSystem, list[int], dict[int, int]]:
        """From-scratch compact instance: the reference every check uses."""
        ids = self.active_ids()
        index = {pid: k for k, pid in enumerate(ids)}
        topo_adj = [
            sorted(index[q] for q in self._adj[pid] if q in index) for pid in ids
        ]
        # pass the original peer objects: metrics and tie-breaks use the
        # stable external peer_id, so preferences survive compaction
        peers = [self._peers[pid] for pid in ids]
        ps = build_preference_system(
            Topology(topo_adj, None, "dynamic"), peers, self.metric
        )
        return ps, ids, index

    def _matching_compact(self, index: dict[int, int]) -> Matching:
        m = Matching(len(index))
        for pid, partners in self._partners.items():
            for q in partners:
                if pid < q:
                    m.add(index[pid], index[q])
        return m

    # -- public views -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of active peers."""
        return len(self._peers)

    def partners(self, peer_id: int) -> frozenset[int]:
        """Current matched partners of a peer (external ids)."""
        return frozenset(self._partners[peer_id])

    def instance(self) -> tuple[PreferenceSystem, Matching]:
        """Compact snapshot ``(instance, matching)`` for analysis."""
        ps, _, index = self._compact_instance()
        return ps, self._matching_compact(index)

    def total_satisfaction(self) -> float:
        """Current network-wide satisfaction (eq. 1).

        An overlay whose peers have all left sums over no node: 0.0.
        """
        if not self._peers:
            return 0.0
        ps, matching = self.instance()
        return matching.total_satisfaction(ps)

    # -- maintenance ---------------------------------------------------------

    def full_rematch(self) -> None:
        """Re-derive the lists, the weight cache and the matching from scratch.

        The one path to a live state: construction, degraded mode and
        :meth:`~repro.service.service.MatchingService.restore` run it,
        and it is the baseline the A3 bench compares the repair to.
        Every ranked list is re-scored from the metric (nothing
        incremental is trusted), the fresh lists are compacted and
        lowered once, so each directed pair is scored once, the lowered
        eq.-9 weights fill the cache, and
        :func:`~repro.core.fast.lic_matching_fast` solves the lowered
        instance.  An overlay without peers gets empty lists, an empty
        cache and no partners.
        """
        self._lists.rank_all(self._adj)
        self._partners = {pid: set() for pid in self._peers}
        ids = self.active_ids()
        if not ids:
            self._wcache.clear()
            return
        index = {pid: k for k, pid in enumerate(ids)}
        rankings = [[index[q] for q in self._lists.ranked(pid)] for pid in ids]
        ps = PreferenceSystem(rankings, [self._peers[p].quota for p in ids])
        fi = FastInstance.from_preference_system(ps)
        self._wcache.seed(fi, ids)
        for a, b in lic_matching_fast(fi).edges():
            self._partners[ids[a]].add(ids[b])
            self._partners[ids[b]].add(ids[a])

    def leave(self, peer_id: int) -> RepairStats:
        """Remove a peer and repair incrementally.

        The leaver's overlay neighbours — its former partners among
        them — lost a list entry, so their eq.-9 weights changed; the
        repair starts from them.  A leaver matched to a peer that has
        already departed is corrupt state: the leaver is still removed
        completely, then :class:`~repro.utils.validation.InvalidMatchingError`
        names the departed partner and no repair runs.
        """
        if peer_id not in self._peers:
            raise KeyError(f"unknown peer {peer_id}")
        neighbours = set(self._adj[peer_id])
        self._wcache.drop(peer_id, neighbours)
        self._lists.leave(peer_id)
        del self._peers[peer_id]
        for q in neighbours:
            self._adj[q].discard(peer_id)
        del self._adj[peer_id]
        departed = []
        for q in self._partners.pop(peer_id, set()):
            if q in self._partners:
                self._partners[q].discard(peer_id)
            else:
                departed.append(q)
        if departed:
            raise InvalidMatchingError(
                f"leaving peer {peer_id} was matched to departed peers {sorted(departed)}"
            )
        if not self._peers:
            return RepairStats()
        return self._repair(neighbours)

    def join(self, peer: Peer, neighbours: Iterable[int]) -> tuple[int, RepairStats]:
        """Add a peer knowing ``neighbours``; returns ``(peer_id, stats)``.

        The input is checked before any state changes: an unknown
        neighbour raises :class:`KeyError` and a non-finite position
        :class:`ValueError`, and neither consumes a peer id nor touches
        ``peer``.
        """
        neigh = set(neighbours)
        unknown = neigh - set(self._peers)
        if unknown:
            raise KeyError(f"unknown neighbours {sorted(unknown)}")
        if not np.all(np.isfinite(peer.position)):
            raise ValueError(f"joining peer has a non-finite position {peer.position!r}")
        pid = self._next_id
        self._next_id += 1
        peer.peer_id = pid
        self._peers[pid] = peer
        self._adj[pid] = set(neigh)
        for q in neigh:
            self._adj[q].add(pid)
        self._partners[pid] = set()
        self._lists.join(pid, neigh)
        # the joiner and its neighbours gained a list entry
        return pid, self._repair(neigh | {pid})

    def _repair(self, changed: set[int]) -> RepairStats:
        """Repair the region an event touched; the one repair path.

        A churn event changes the preference lists of the peers in
        ``changed``, which rescales *all* their eq.-9 edge weights, so
        the cache recomputes exactly those peers' edges.  The repair
        starts from them and their partners, the seed
        :func:`greedy_repair` requires: any other peer keeps its list,
        quota and partners, so its bar moves only if it is matched to a
        changed peer.  The repair wave extends the seed as it drops
        partners.  The finished region must pass
        :meth:`partner_violations`, else
        :class:`~repro.utils.validation.InvalidMatchingError` carries
        every violation it found.
        """
        if self._full_resolve_due():
            self.full_rematch()
            return self._account(RepairStats(), full=True)
        seed = set(changed)
        for pid in changed:
            seed.update(self._partners.get(pid, ()))
        reused, recomputed = self._wcache.refresh(changed)
        region = {pid for pid in seed if pid in self._peers}
        stats = greedy_repair(self._wcache, self._lists.quota, self._partners, region)
        stats.weights_reused = reused
        stats.weights_recomputed = recomputed
        violations = self.partner_violations(region)
        if violations:
            raise InvalidMatchingError("; ".join(violations))
        return self._account(stats, full=False)

    def partner_violations(self, pids: Iterable[int]) -> list[str]:
        """The b-matching rule (paper §2) over the partner sets of ``pids``.

        A live peer holds a partner set of at most ``quota`` live
        overlay neighbours, each of which holds it back; a departed
        peer holds none.  Returns one message per breach, in the order
        found, and ``[]`` when every peer in ``pids`` keeps the rule.
        The repair checks its region with it and the service's
        structure guard every live or matched peer.  The raw ``quota``
        is enough: a set of neighbours exceeds the clamped quota
        ``min(quota, |adj|)`` exactly when it exceeds ``quota``.
        """
        peers, adj, partners = self._peers, self._adj, self._partners
        found = []
        for pid in pids:
            mine = partners.get(pid)
            peer = peers.get(pid)
            if peer is None:
                if mine is not None:
                    found.append(f"liveness: departed peer {pid} still holds partners")
                continue
            if mine is None:
                found.append(f"liveness: live peer {pid} holds no partner set")
                continue
            if len(mine) > peer.quota:
                found.append(
                    f"capacity: peer {pid} holds {len(mine)} partners"
                    f" (quota {peer.quota})"
                )
            near = adj[pid]
            for q in mine:
                # adjacency names live peers only, so a neighbour is live
                if q not in near:
                    if q not in peers:
                        found.append(f"liveness: peer {pid} matched to departed peer {q}")
                        continue
                    found.append(
                        f"mutual consent: peer {pid} matched to non-neighbour {q}"
                    )
                if pid not in partners.get(q, ()):
                    found.append(f"mutual consent: {pid} ~ {q} is asymmetric")
        return found

    # -- policy hooks (the service overrides them) --------------------------

    def _full_resolve_due(self) -> bool:
        """Whether the next event is answered by a full re-solve instead."""
        return False

    def _account(self, stats: RepairStats, full: bool) -> RepairStats:
        """Act on a finished repair (``full``: it was a full re-solve)."""
        return stats
