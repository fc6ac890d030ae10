"""Tests for peer models and suitability metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay.metrics import (
    BATCH_MIN_PAIRS,
    BandwidthMetric,
    CompositeMetric,
    DistanceMetric,
    InterestMetric,
    MetricAssignment,
    PrivateTasteMetric,
    ReliabilityMetric,
    score_pairs,
)
from repro.overlay.peer import Peer, generate_peers


def make_peer(pid, pos=(0, 0), interests=(1, 0), bw=1.0, rel=1.0):
    return Peer(
        peer_id=pid,
        position=np.array(pos, dtype=float),
        interests=np.array(interests, dtype=float),
        bandwidth=bw,
        reliability=rel,
    )


class TestPeer:
    def test_generate_population(self):
        peers = generate_peers(30, np.random.default_rng(0))
        assert len(peers) == 30
        assert all(2 <= p.quota <= 5 for p in peers)
        assert all(p.bandwidth >= 1.0 for p in peers)
        assert all(0.0 <= p.reliability <= 1.0 for p in peers)

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            Peer(peer_id=0, quota=0)

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            generate_peers(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_peers(5, np.random.default_rng(0), quota_range=(3, 2))


class TestMetrics:
    def test_distance_prefers_nearby(self):
        a = make_peer(0, pos=(0, 0))
        near = make_peer(1, pos=(0.1, 0))
        far = make_peer(2, pos=(0.9, 0.9))
        m = DistanceMetric()
        assert m(a, near) > m(a, far)

    def test_interest_cosine(self):
        a = make_peer(0, interests=(1, 0))
        same = make_peer(1, interests=(2, 0))
        ortho = make_peer(2, interests=(0, 1))
        m = InterestMetric()
        assert m(a, same) == pytest.approx(1.0)
        assert m(a, ortho) == pytest.approx(0.0)

    def test_interest_zero_vector_safe(self):
        a = make_peer(0, interests=(0, 0))
        b = make_peer(1, interests=(1, 0))
        assert InterestMetric()(a, b) == 0.0

    def test_bandwidth_and_reliability_rank_candidate(self):
        a = make_peer(0)
        big = make_peer(1, bw=10.0, rel=0.2)
        small = make_peer(2, bw=1.0, rel=0.9)
        assert BandwidthMetric()(a, big) > BandwidthMetric()(a, small)
        assert ReliabilityMetric()(a, small) > ReliabilityMetric()(a, big)

    def test_composite_weighted_sum(self):
        a = make_peer(0)
        b = make_peer(1, bw=4.0, rel=0.5)
        m = CompositeMetric([(0.5, BandwidthMetric()), (2.0, ReliabilityMetric())])
        assert m(a, b) == pytest.approx(0.5 * 4.0 + 2.0 * 0.5)

    def test_composite_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeMetric([])


class TestPrivateTaste:
    def test_deterministic_per_pair(self):
        m = PrivateTasteMetric(seed=5)
        a, b = make_peer(0), make_peer(1)
        assert m(a, b) == m(a, b)

    def test_asymmetric_across_direction(self):
        m = PrivateTasteMetric(seed=5)
        a, b = make_peer(0), make_peer(1)
        assert m(a, b) != m(b, a)

    def test_blend_requires_base(self):
        with pytest.raises(ValueError):
            PrivateTasteMetric(seed=1, blend=0.5)

    def test_blend_mixes(self):
        base = BandwidthMetric()
        m = PrivateTasteMetric(seed=1, base=base, blend=0.0)
        a, b = make_peer(0), make_peer(1, bw=7.0)
        assert m(a, b) == pytest.approx(7.0)

    def test_seed_validated_at_construction(self):
        with pytest.raises(ValueError, match="seed"):
            PrivateTasteMetric(-1)
        with pytest.raises(TypeError, match="seed"):
            PrivateTasteMetric(1.5)
        with pytest.raises(TypeError, match="seed"):
            PrivateTasteMetric("3")
        a, b = make_peer(0), make_peer(1)
        assert PrivateTasteMetric(np.uint32(3))(a, b) == PrivateTasteMetric(3)(a, b)


U32_MAX = 2**32 - 1


def _scalar(metric, peers, src, dst):
    score = metric.score if isinstance(metric, MetricAssignment) else metric
    return [score(peers[s], peers[d]).hex() for s, d in zip(src, dst)]


def _hex(scores):
    return [float(x).hex() for x in scores]


def _service_metric(seed):
    return PrivateTasteMetric(seed, base=DistanceMetric(), blend=0.5)


def _population(rng, count, ids=()):
    """``count`` peers: the given ids first, then distinct random ones."""
    ids = list(ids)
    while len(ids) < count:
        pid = int(rng.integers(0, 2**32))
        if pid not in ids:
            ids.append(pid)
    return [Peer(peer_id=pid, position=rng.uniform(0.0, 1.0, 2)) for pid in ids]


class TestBatchScoring:
    """The batch contract: ``score_pairs`` equals the scalar calls bit for bit."""

    @pytest.mark.parametrize("seed", [0, 2**31, U32_MAX, 7, 123_456_789])
    @pytest.mark.parametrize("blend", [1.0, 0.5])
    def test_seeded_pairs_match_scalar(self, seed, blend):
        # 5 seeds x 2 blends x 5,000 pairs = 50,000 pairs, ids 0 and 2**32-1 included
        rng = np.random.default_rng(seed)
        peers = _population(rng, 200, ids=(0, U32_MAX))
        src = rng.integers(0, len(peers), 5_000)
        dst = rng.integers(0, len(peers), 5_000)
        src[:4], dst[:4] = (0, 1, 0, 1), (1, 0, 0, 1)
        metric = PrivateTasteMetric(seed) if blend == 1.0 else _service_metric(seed)
        batch = metric.score_batch(peers, src, dst)
        assert batch is not None
        assert _hex(batch) == _scalar(metric, peers, src.tolist(), dst.tolist())

    def test_distance_matches_norm(self):
        # a plain dx*dx + dy*dy rounds differently from norm on ~8% of pairs
        rng = np.random.default_rng(11)
        peers = _population(rng, 300)
        src, dst = rng.integers(0, 300, 5_000), rng.integers(0, 300, 5_000)
        metric = DistanceMetric()
        assert _hex(metric.score_batch(peers, src, dst)) == _scalar(
            metric, peers, src.tolist(), dst.tolist()
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(
            st.sampled_from([0, 2**31, U32_MAX, 2**32]), st.integers(0, 2**32 + 3)
        ),
        ids=st.lists(
            st.one_of(st.sampled_from([0, U32_MAX, 2**32]), st.integers(0, 2**32 + 3)),
            min_size=1, max_size=8, unique=True,
        ),
        coords=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=16, max_size=16
        ),
        blend=st.sampled_from([1.0, 0.5]),
    )
    def test_any_input_matches_scalar(self, seed, ids, coords, blend):
        peers = [
            Peer(peer_id=pid, position=coords[2 * k:2 * k + 2])
            for k, pid in enumerate(ids)
        ]
        src = [s for s in range(len(ids)) for _ in ids] * 2
        dst = list(range(len(ids))) * len(ids) * 2
        metric = PrivateTasteMetric(seed) if blend == 1.0 else _service_metric(seed)
        for m in (metric, DistanceMetric()):
            assert _hex(score_pairs(m, peers, src, dst)) == _scalar(m, peers, src, dst)

    def test_words_past_32_bits_take_the_scalar_path(self):
        # SeedSequence spreads a value >= 2**32 over two entropy words
        rng = np.random.default_rng(3)
        peers = _population(rng, 40)
        src = list(range(40)) * 2
        dst = list(range(1, 40)) + [0] + list(range(40))
        big_seed = _service_metric(2**32)
        assert big_seed.score_batch(peers, np.array(src), np.array(dst)) is None
        assert _hex(score_pairs(big_seed, peers, src, dst)) == _scalar(
            big_seed, peers, src, dst
        )
        peers[5].peer_id = 2**32 + 5
        metric = _service_metric(9)
        assert metric.score_batch(peers, np.array(src), np.array(dst)) is None
        assert _hex(score_pairs(metric, peers, src, dst)) == _scalar(metric, peers, src, dst)

    def test_negative_id_fails_as_the_scalar_call_does(self):
        peers = [Peer(peer_id=pid) for pid in range(-1, 19)]
        src, dst = list(range(20)), list(range(1, 20)) + [0]
        with pytest.raises(ValueError, match="non-negative"):
            score_pairs(PrivateTasteMetric(1), peers, src, dst)

    def test_unbatchable_inputs_take_the_scalar_path(self):
        rng = np.random.default_rng(4)
        peers = _population(rng, 30)
        src, dst = list(range(30)), list(range(1, 30)) + [0]
        peers[3].position = np.zeros(3)  # ragged positions
        assert DistanceMetric().score_batch(peers, np.array(src), np.array(dst)) is None
        for metric in (
            BandwidthMetric(),
            PrivateTasteMetric(2, base=BandwidthMetric(), blend=0.5),
            MetricAssignment(PrivateTasteMetric(2), {peers[0].peer_id: BandwidthMetric()}),
        ):
            assert _hex(score_pairs(metric, peers, src, dst)) == _scalar(
                metric, peers, src, dst
            )

    def test_small_batches_take_the_scalar_loop(self):
        class Recording(PrivateTasteMetric):
            batches = 0

            def score_batch(self, peers, src, dst):
                Recording.batches += 1
                return super().score_batch(peers, src, dst)

        rng = np.random.default_rng(5)
        peers = _population(rng, BATCH_MIN_PAIRS + 1)
        metric = Recording(3)
        for size, batches in ((BATCH_MIN_PAIRS - 1, 0), (BATCH_MIN_PAIRS, 1)):
            src, dst = [0] * size, list(range(1, size + 1))
            assert _hex(score_pairs(metric, peers, src, dst)) == _scalar(
                metric, peers, src, dst
            )
            assert Recording.batches == batches


class TestMetricAssignment:
    def test_override_and_default(self):
        assign = MetricAssignment(
            default=BandwidthMetric(), overrides={1: ReliabilityMetric()}
        )
        a0, a1 = make_peer(0), make_peer(1)
        b = make_peer(2, bw=9.0, rel=0.1)
        assert assign.score(a0, b) == pytest.approx(9.0)
        assert assign.score(a1, b) == pytest.approx(0.1)
        assert isinstance(assign.metric_for(5), BandwidthMetric)
