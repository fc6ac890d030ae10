"""Suitability metrics — each peer's private notion of a good neighbour.

A metric maps an ordered peer pair to a score (higher = more suitable
*to the first peer*).  The paper stresses that every peer "may follow an
individually chosen metric — that it may even not want to disclose to
other peers"; correspondingly the builder only ever uses metrics to
produce each node's *own* ranking, and the algorithms only ever see the
resulting ranks (and the eq.-9 weights derived from them), never the
metric itself.

Provided metrics mirror the paper's motivating list (§1): distance,
interests, recommendations/history, available resources — plus
composition and private per-peer idiosyncrasy.

Batch contract
--------------
Every bulk ranking scores its pairs through :func:`score_pairs`.  The
scalar ``metric(a, b)`` stays the definition: ``score_pairs`` returns
exactly the floats the scalar calls would, bit for bit, in pair order.
A metric may add a ``score_batch(peers, src, dst)`` method returning a
float64 array of those same values, or ``None`` when it cannot promise
them for this input; :class:`DistanceMetric` and
:class:`PrivateTasteMetric` do.  Batches below :data:`BATCH_MIN_PAIRS`
pairs, metrics without the method, a ``None`` answer and every
:class:`MetricAssignment` take the scalar loop.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, Sequence

import numpy as np

from repro.overlay.peer import Peer

__all__ = [
    "SuitabilityMetric",
    "DistanceMetric",
    "InterestMetric",
    "BandwidthMetric",
    "ReliabilityMetric",
    "CompositeMetric",
    "PrivateTasteMetric",
    "MetricAssignment",
    "BATCH_MIN_PAIRS",
    "score_pairs",
]


class SuitabilityMetric(Protocol):
    """Callable scoring how suitable ``b`` is as a neighbour of ``a``."""

    def __call__(self, a: Peer, b: Peer) -> float: ...


class DistanceMetric:
    """Prefer nearby peers: score = −‖pos_a − pos_b‖ (latency proxy)."""

    def __call__(self, a: Peer, b: Peer) -> float:
        return -float(np.linalg.norm(a.position - b.position))

    def score_batch(
        self, peers: Sequence[Peer], src: np.ndarray, dst: np.ndarray
    ) -> Optional[np.ndarray]:
        """The batch contract's method; ``None`` unless every position
        is a float64 vector of one shape."""
        try:
            pos = np.array([p.position for p in peers])
        except ValueError:  # ragged positions
            return None
        if pos.dtype != np.float64 or pos.ndim != 2:
            return None
        d = pos[src] - pos[dst]
        # norm sums the squares through the same BLAS dot as vecdot; a
        # plain dx*dx + dy*dy rounds differently where the dot fuses a
        # multiply-add
        return -np.sqrt(np.vecdot(d, d))


class InterestMetric:
    """Prefer peers with similar interests: cosine similarity."""

    def __call__(self, a: Peer, b: Peer) -> float:
        na = float(np.linalg.norm(a.interests))
        nb = float(np.linalg.norm(b.interests))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(a.interests @ b.interests) / (na * nb)


class BandwidthMetric:
    """Prefer high-capacity peers: score = candidate's bandwidth."""

    def __call__(self, a: Peer, b: Peer) -> float:
        return float(b.bandwidth)


class ReliabilityMetric:
    """Prefer historically reliable peers (transaction-history proxy)."""

    def __call__(self, a: Peer, b: Peer) -> float:
        return float(b.reliability)


class CompositeMetric:
    """Weighted sum of other metrics.

    ``CompositeMetric([(0.7, DistanceMetric()), (0.3, BandwidthMetric())])``
    models a peer that mostly wants low latency but values capacity.
    Component scores are used raw (callers should pick weights aware of
    each component's scale).
    """

    def __init__(self, parts: Sequence[tuple[float, SuitabilityMetric]]):
        if not parts:
            raise ValueError("CompositeMetric needs at least one component")
        self.parts = list(parts)

    def __call__(self, a: Peer, b: Peer) -> float:
        return sum(w * metric(a, b) for w, metric in self.parts)


class PrivateTasteMetric:
    """A peer-private idiosyncratic score, optionally blended with a base.

    Each calling peer ``a`` has its own hidden random valuation of every
    candidate, drawn deterministically from ``(seed, a.peer_id,
    b.peer_id)``.  With ``blend < 1`` the taste perturbs a base metric;
    with ``blend = 1`` preferences are fully idiosyncratic — the
    fully-heterogeneous regime in which acyclicity assumptions break and
    the paper's weight construction earns its keep (experiment F4).
    """

    def __init__(
        self,
        seed: int,
        base: SuitabilityMetric | None = None,
        blend: float = 1.0,
    ):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if not (0.0 <= blend <= 1.0):
            raise ValueError(f"blend must be in [0,1], got {blend}")
        if blend < 1.0 and base is None:
            raise ValueError("blend < 1 requires a base metric")
        self.seed = seed
        self.base = base
        self.blend = blend

    def __call__(self, a: Peer, b: Peer) -> float:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, a.peer_id, b.peer_id])
        )
        taste = float(rng.random())
        if self.blend >= 1.0:
            return taste
        assert self.base is not None
        return self.blend * taste + (1.0 - self.blend) * self.base(a, b)

    def score_batch(
        self, peers: Sequence[Peer], src: np.ndarray, dst: np.ndarray
    ) -> Optional[np.ndarray]:
        """The batch contract's method; ``None`` when the seed or a peer
        id lies outside ``[0, 2**32)`` (SeedSequence then spreads it over
        more entropy words) or a blended base metric does not batch."""
        if self.seed > _U32:
            return None
        ids = np.array([p.peer_id for p in peers])
        if ids.dtype.kind not in "iu" or not ids.size or ids.min() < 0 or ids.max() > _U32:
            return None
        ids = ids.astype(np.uint32)
        taste = _taste(self.seed, ids[src], ids[dst])
        if self.blend >= 1.0:
            return taste
        batch = getattr(self.base, "score_batch", None)
        base = batch(peers, src, dst) if batch is not None else None
        if base is None:
            return None
        return self.blend * taste + (1.0 - self.blend) * base


# -- the taste draw, vectorised ----------------------------------------------
#
# For words below 2**32, ``default_rng(SeedSequence([seed, a, b])).random()``
# is: SeedSequence hashes the three words and one zero pad into a pool of
# four uint32 words and mixes every word into every other;
# ``generate_state(4, uint64)`` hashes the pool into PCG64's 128-bit seed
# and increment; PCG64 seeds with one LCG step and draws with a second;
# ``random()`` keeps the top 53 bits of the XSL-RR output.  NumPy keeps
# both streams stable across versions, and no hash constant depends on
# the data.

_U32 = 0xFFFF_FFFF


def _hash_keys(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) columns of ``count`` successive SeedSequence hashes."""
    xor, mul = [], []
    for _ in range(count):
        xor.append(init)
        init = init * mult & _U32
        mul.append(init)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


#: the 4 pool words, then the 12 cross-mixes (3 per source word)
_MIX_XOR, _MIX_MUL = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
#: the 8 uint32 words of ``generate_state(4, uint64)``
_OUT_XOR, _OUT_MUL = _hash_keys(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: PCG64's 128-bit LCG multiplier, as (high, low) words
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _add128(ahi, alo, bhi, blo):
    lo = alo + blo
    return ahi + bhi + (lo < alo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * multiplier + inc`` mod 2**128, on (high,
    low) uint64 words; the low words' full product goes through 32-bit limbs."""
    m0, m1 = _PCG_LO & _U32, _PCG_LO >> 32
    l0, l1 = lo & _U32, lo >> 32
    p00, p01, p10 = l0 * m0, l0 * m1, l1 * m0
    mid = (p00 >> 32) + (p01 & _U32) + (p10 & _U32)
    prod_lo = (p00 & _U32) | (mid << 32)
    prod_hi = (
        l1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + hi * _PCG_LO + lo * _PCG_HI
    )
    return _add128(prod_hi, prod_lo, inc_hi, inc_lo)


def _taste(seed: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``default_rng(SeedSequence([seed, a[k], b[k]])).random()`` for every
    ``k``; ``a`` and ``b`` are uint32 arrays."""
    pool = np.zeros((4, len(a)), np.uint32)
    pool[0], pool[1], pool[2] = seed, a, b
    pool = _hashmix(pool, _MIX_XOR[:4], _MIX_MUL[:4])
    for src in range(4):
        # the source word is hashed once per other word, then mixed in
        dst = [d for d in range(4) if d != src]
        keys = slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _MIX_XOR[keys], _MIX_MUL[keys])
        pool[dst] = mixed ^ (mixed >> 16)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MUL).astype(np.uint64)
    # little-endian pairs of uint32 words make the four uint64 words:
    # seed = w0:w1 and increment = (w2:w3 << 1) | 1, as (high, low) words
    w = out[0::2] | (out[1::2] << 32)
    inc_hi = (w[2] << 1) | (w[3] >> 63)
    inc_lo = (w[3] << 1) | 1
    # seeding sets state = increment + seed and steps once; the draw steps again
    hi, lo = _add128(inc_hi, inc_lo, w[0], w[1])
    for _ in range(2):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> 58
    out = (x >> rot) | (x << ((64 - rot) & 63))
    return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


class MetricAssignment:
    """Per-peer metric choice: ``assignment[peer_id] -> metric``.

    Models the fully distributed scenario where "every peer may follow
    an individually chosen metric".  Missing peers fall back to
    ``default``.
    """

    def __init__(
        self,
        default: SuitabilityMetric,
        overrides: Mapping[int, SuitabilityMetric] | None = None,
    ):
        self.default = default
        self.overrides = dict(overrides or {})

    def metric_for(self, peer_id: int) -> SuitabilityMetric:
        """The metric peer ``peer_id`` evaluates candidates with."""
        return self.overrides.get(peer_id, self.default)

    def score(self, a: Peer, b: Peer) -> float:
        """Score of candidate ``b`` according to ``a``'s own metric."""
        return self.metric_for(a.peer_id)(a, b)


#: below this many pairs the scalar loop is faster than one batched call.
#: On a 2-core x86-64 Xeon a batched call of the service's blended metric
#: costs ~0.13 ms at any size up to 32 pairs and its scalar loop ~15 µs per
#: pair; the two cross between 8 and 10 pairs.
BATCH_MIN_PAIRS = 10


def score_pairs(
    metric: SuitabilityMetric | MetricAssignment,
    peers: Sequence[Peer],
    src: Sequence[int],
    dst: Sequence[int],
) -> list[float]:
    """How ``peers[src[k]]`` rates ``peers[dst[k]]``, for every ``k``.

    The module's batch contract: equal, bit for bit, to the scalar
    ``[score(peers[s], peers[d]) for s, d in zip(src, dst)]``, where
    ``score`` is ``metric`` or, for a :class:`MetricAssignment`, each
    ranking peer's own metric.  Callers gather each peer once into
    ``peers`` and name pairs by index into it.
    """
    batch = getattr(metric, "score_batch", None)
    if batch is not None and len(src) >= BATCH_MIN_PAIRS:
        scores = batch(peers, np.asarray(src, np.intp), np.asarray(dst, np.intp))
        if scores is not None:
            return scores.tolist()
    score = metric.score if isinstance(metric, MetricAssignment) else metric
    return [score(peers[s], peers[d]) for s, d in zip(src, dst)]
