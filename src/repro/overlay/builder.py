"""OverlayBuilder: peers + topology + metrics → PreferenceSystem.

The glue of the overlay substrate: every node ranks its topology
neighbourhood with *its own* suitability metric (ties broken by peer
id), and the per-peer quotas become the b-matching quotas.  The output
:class:`~repro.core.preferences.PreferenceSystem` is what all matching
algorithms consume — at that point the metrics themselves are forgotten,
matching the paper's privacy stance (peers disclose ``ΔS̄`` values, not
metrics).

Node ``i`` of the instance corresponds to ``peers[i]``; the peers'
``peer_id`` attributes may differ from their index (they are *external*
ids, stable under churn) — metrics and tie-breaking always use the
external id, so a peer's preferences do not change when unrelated peers
join or leave.

:class:`RankedLists` keeps the same lists alive across churn for the
long-lived overlays of :mod:`repro.overlay.churn`: in external-id
space, sorted by the same :func:`ranking_key`, and updated by bisection
so an event scores only the pairs it touches.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.preferences import PreferenceSystem
from repro.overlay.metrics import MetricAssignment, SuitabilityMetric, score_pairs
from repro.overlay.peer import Peer
from repro.overlay.topology import Topology
from repro.utils.validation import InvalidInstanceError

__all__ = ["RankedLists", "build_preference_system", "ranking_key"]

RankKey = tuple[float, int]


def ranking_key(score: float, peer_id: int) -> RankKey:
    """Sort key of a candidate in a preference list: best score first,
    ties to the lower peer id.  Every list of the library sorts by it."""
    return (-score, peer_id)


def build_preference_system(
    topology: Topology,
    peers: Sequence[Peer],
    metric: SuitabilityMetric | MetricAssignment,
    quotas: Optional[Sequence[int]] = None,
    sync_positions: bool = True,
) -> PreferenceSystem:
    """Construct the matching instance for an overlay scenario.

    Parameters
    ----------
    topology:
        The potential-connection graph; node ``i`` corresponds to
        ``peers[i]``.
    peers:
        Peer objects supplying the attributes metrics read.  Their
        ``peer_id`` fields need not equal their index but must be
        distinct (they seed private metrics and break score ties).
    metric:
        A single metric applied by every peer, or a
        :class:`~repro.overlay.metrics.MetricAssignment` giving each
        peer its private metric (keyed by external ``peer_id``).
    quotas:
        Optional explicit quotas; defaults to each peer's ``quota``
        attribute.
    sync_positions:
        When the topology carries positions (geometric families), copy
        them onto the peers so distance metrics see the coordinates the
        graph was built from.
    """
    if len(peers) != topology.n:
        raise InvalidInstanceError(
            f"{len(peers)} peers for a topology of {topology.n} nodes"
        )
    if len({p.peer_id for p in peers}) != len(peers):
        raise InvalidInstanceError("peer ids must be distinct")
    if sync_positions and topology.positions is not None:
        for i, peer in enumerate(peers):
            peer.position = topology.positions[i]

    adjacency = topology.adjacency
    scores = score_pairs(
        metric,
        peers,
        [i for i, neighbours in enumerate(adjacency) for _ in neighbours],
        list(chain.from_iterable(adjacency)),
    )
    rankings = {}
    start = 0
    for i, neighbours in enumerate(adjacency):
        key = {
            j: ranking_key(score, peers[j].peer_id)
            for j, score in zip(neighbours, scores[start:start + len(neighbours)])
        }
        start += len(neighbours)
        rankings[i] = sorted(neighbours, key=key.__getitem__)
    if quotas is None:
        quotas = [p.quota for p in peers]
    return PreferenceSystem(rankings, list(quotas))


class RankedLists:
    """Every peer's preference list in external-id space, kept sorted.

    ``peers`` is the caller's live ``peer_id -> Peer`` mapping (read
    whenever a pair is scored).  Each list holds :func:`ranking_key`
    tuples in ascending order, so it equals the list
    :func:`build_preference_system` would sort from scratch; churn
    updates it by bisection and scores only the pairs an event touches.
    Every method scores its pairs in one
    :func:`~repro.overlay.metrics.score_pairs` call:

    - :meth:`rank_all` scores every directed pair of the adjacency;
    - :meth:`join` scores the joiner's ``k`` neighbours and the joiner
      in each of their lists, ``2k`` pairs, and inserts it there by
      bisection;
    - :meth:`leave` removes a peer from its neighbours' lists: no pairs;
    - :meth:`rescore` re-ranks a moved peer and re-inserts it into each
      neighbour's list: ``2·deg`` pairs.

    A join's ``2k`` pairs usually fall below
    :data:`~repro.overlay.metrics.BATCH_MIN_PAIRS`, so it takes the
    scalar loop; a full re-ranking is one batch.
    """

    __slots__ = ("_metric", "_peers", "_keys", "_key")

    def __init__(
        self,
        metric: SuitabilityMetric | MetricAssignment,
        peers: Mapping[int, Peer],
    ):
        self._metric = metric
        self._peers = peers
        #: peer -> its list's keys, ascending (best candidate first)
        self._keys: dict[int, list[RankKey]] = {}
        #: peer -> candidate -> that candidate's key in the peer's list
        self._key: dict[int, dict[int, RankKey]] = {}

    def rank_all(self, adjacency: Mapping[int, Iterable[int]]) -> None:
        """Re-score every list of ``adjacency`` from the metric (each
        directed pair once); lists of peers it omits are dropped."""
        self._keys.clear()
        self._key.clear()
        lists = {pid: list(neighbours) for pid, neighbours in adjacency.items()}
        scores = self._score(
            [pid for pid, neighbours in lists.items() for _ in neighbours],
            list(chain.from_iterable(lists.values())),
        )
        start = 0
        for pid, neighbours in lists.items():
            self._set(pid, neighbours, scores[start:start + len(neighbours)])
            start += len(neighbours)

    def _score(self, src: list[int], dst: list[int]) -> list[float]:
        """How peer ``src[k]`` rates peer ``dst[k]``, from a table that
        holds each named peer once."""
        index = dict.fromkeys(chain(src, dst))
        table = []
        for k, pid in enumerate(index):
            index[pid] = k
            table.append(self._peers[pid])
        return score_pairs(
            self._metric,
            table,
            list(map(index.__getitem__, src)),
            list(map(index.__getitem__, dst)),
        )

    def _set(self, pid: int, neighbours: list[int], scores: list[float]) -> None:
        keys = dict(zip(neighbours, map(ranking_key, scores, neighbours)))
        self._key[pid] = keys
        self._keys[pid] = sorted(keys.values())

    def _rank_both(self, pid: int, neighbours: list[int]) -> list[RankKey]:
        """Rank ``pid``'s neighbourhood; return ``pid``'s key in each
        neighbour's list."""
        k = len(neighbours)
        scores = self._score([pid] * k + neighbours, neighbours + [pid] * k)
        self._set(pid, neighbours, scores[:k])
        return [ranking_key(score, pid) for score in scores[k:]]

    def _insert(self, pid: int, q: int, key: RankKey) -> None:
        self._key[pid][q] = key
        insort(self._keys[pid], key)

    def _remove(self, pid: int, q: int) -> None:
        keys = self._keys[pid]
        del keys[bisect_left(keys, self._key[pid].pop(q))]

    # -- churn ------------------------------------------------------------

    def join(self, pid: int, neighbours: Iterable[int]) -> None:
        """Rank a new peer's neighbourhood and enter it into theirs."""
        neighbours = list(neighbours)
        for q, key in zip(neighbours, self._rank_both(pid, neighbours)):
            self._insert(q, pid, key)

    def leave(self, pid: int) -> None:
        """Drop a peer's list and remove it from its neighbours' lists."""
        for q in self._key.pop(pid):
            self._remove(q, pid)
        del self._keys[pid]

    def rescore(self, pid: int) -> None:
        """Re-rank a peer whose attributes changed, in both directions."""
        neighbours = list(self._key[pid])
        for q, key in zip(neighbours, self._rank_both(pid, neighbours)):
            self._remove(q, pid)
            self._insert(q, pid, key)

    # -- queries ----------------------------------------------------------

    def __contains__(self, pid: int) -> bool:
        return pid in self._keys

    def peers(self) -> Iterable[int]:
        """Every ranked peer (a set-like view)."""
        return self._keys.keys()

    def ranked(self, pid: int) -> list[int]:
        """``pid``'s preference list, best candidate first."""
        return [q for _, q in self._keys[pid]]

    def neighbors(self, pid: int) -> Iterable[int]:
        """``pid``'s candidates, unordered."""
        return self._key[pid].keys()

    def length(self, pid: int) -> int:
        """List length ``ℓ``."""
        return len(self._keys[pid])

    def rank(self, pid: int, q: int) -> int:
        """Rank ``R_pid(q)`` (0 = best)."""
        return bisect_left(self._keys[pid], self._key[pid][q])

    def quota(self, pid: int) -> int:
        """``pid``'s quota clamped to its list length, as
        :class:`~repro.core.preferences.PreferenceSystem` clamps it."""
        return min(self._peers[pid].quota, len(self._keys[pid]))
