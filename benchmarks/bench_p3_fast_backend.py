"""P3 — performance: the array-backed fast matching backend.

Engineering companion (not a paper claim).  Two comparisons:

1. **End-to-end LIC pipeline** — reference path
   (:func:`satisfaction_weights` + :func:`lic_matching`) vs fast path
   (:class:`FastInstance` lowering + :func:`lic_matching_fast`) at
   n ∈ {1000, 5000, 20000}.  Each repetition runs the *cold* pipeline —
   no caches survive between repetitions, matching how the backend is
   used (`lower once, solve once`).  The edge sets are asserted
   identical (the fast scan is an exact LIC execution, not an
   approximation) and the 20k point must clear a 5x speedup — the
   regression gate this bench exists for.

2. **Churn repair weight reuse** — :class:`DynamicOverlay` serves
   eq.-9 weights from the incremental :class:`WeightCache` instead of
   rebuilding the table per event; after every event the matching is
   asserted equal to the reference pipeline run from scratch on the
   compacted instance (outside the timed region).

Timings use best-of-k with gc disabled (the CI smoke job passes
``--benchmark-disable-gc`` for the same reason: collector pauses are
noise, not signal).  Results land in
``benchmarks/results/p3_fast_backend.csv`` and
``benchmarks/results/p3_churn_weight_cache.csv``.
"""

import gc
import time

from repro.core.fast import FastInstance, lic_matching_fast
from repro.core.lic import lic_matching
from repro.core.weights import satisfaction_weights
from repro.experiments import random_preference_instance
from repro.overlay import DynamicOverlay, Peer, build_scenario
from repro.utils.rng import spawn_rng

SPEEDUP_GATE_N = 20000
SPEEDUP_GATE = 5.0


def _best_of(fn, k=3):
    """Minimum wall time of k cold runs (gc off) and the last result."""
    best = float("inf")
    out = None
    gc.disable()
    try:
        for _ in range(k):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return out, best


def _reference_pipeline(ps):
    wt = satisfaction_weights(ps)
    return lic_matching(wt, ps.quotas)


def _fast_pipeline(ps):
    return lic_matching_fast(FastInstance.from_preference_system(ps))


def test_p3_fast_backend(report, benchmark, bench_seed):
    rows = []
    for n in (1000, 5000, 20000):
        ps = random_preference_instance(n, 12.0 / n, 3, seed=bench_seed)
        m_ref, t_ref = _best_of(lambda: _reference_pipeline(ps))
        m_fast, t_fast = _best_of(lambda: _fast_pipeline(ps))
        rows.append(
            {
                "n": n,
                "m": ps.m,
                "ref_ms": 1e3 * t_ref,
                "fast_ms": 1e3 * t_fast,
                "speedup": t_ref / max(t_fast, 1e-9),
                "equal": m_ref.edge_set() == m_fast.edge_set(),
            }
        )
    report(
        rows,
        ["n", "m", "ref_ms", "fast_ms", "speedup", "equal"],
        title="P3  fast LIC backend, cold pipeline best-of-3"
              " (equal = identical edge sets)",
        csv_name="p3_fast_backend.csv",
    )
    assert all(r["equal"] for r in rows)
    gate = next(r for r in rows if r["n"] == SPEEDUP_GATE_N)
    assert gate["speedup"] >= SPEEDUP_GATE, (
        f"fast backend regressed: {gate['speedup']:.2f}x < {SPEEDUP_GATE}x"
        f" at n={SPEEDUP_GATE_N}"
    )

    ps = random_preference_instance(20000, 12.0 / 20000, 3, seed=bench_seed)
    benchmark(lambda: _fast_pipeline(ps))


def _churn_session(n, events, seed):
    """Time ``events`` churn events; check each against a fresh solve."""
    sc = build_scenario("geo_latency", n, seed=seed)
    dyn = DynamicOverlay(sc.topology, sc.peers, sc.metric)
    rng = spawn_rng(seed, "p3-churn")
    reused = recomputed = 0
    elapsed = 0.0
    for _ in range(events):
        t0 = time.perf_counter()
        if rng.random() < 0.5 and dyn.n > n // 2:
            stats = dyn.leave(int(rng.choice(dyn.active_ids())))
        else:
            ids = dyn.active_ids()
            k = min(int(rng.integers(2, 6)), len(ids))
            neigh = [int(x) for x in rng.choice(ids, size=k, replace=False)]
            _, stats = dyn.join(
                Peer(peer_id=-1, position=rng.uniform(0, 1, 2), quota=3), neigh
            )
        elapsed += time.perf_counter() - t0
        reused += stats.weights_reused
        recomputed += stats.weights_recomputed
        ps, matching = dyn.instance()
        # the cache must not change any matching
        assert matching.edge_set() == _reference_pipeline(ps).edge_set()
    return elapsed, reused, recomputed


def test_p3_churn_weight_cache(report, benchmark, bench_seed):
    rows = []
    events = 30
    for n in (100, 300):
        elapsed, reused, recomputed = _churn_session(n, events, bench_seed)
        rows.append(
            {
                "n": n,
                "events": events,
                "ms_per_event": 1e3 * elapsed / events,
                "weight_reuse": reused / max(reused + recomputed, 1),
            }
        )
    report(
        rows,
        ["n", "events", "ms_per_event", "weight_reuse"],
        title="P3  churn repair with the incremental WeightCache",
        csv_name="p3_churn_weight_cache.csv",
    )
    assert all(r["weight_reuse"] > 0.3 for r in rows)

    sc = build_scenario("geo_latency", 200, seed=bench_seed)
    dyn = DynamicOverlay(sc.topology, sc.peers, sc.metric)
    rng = spawn_rng(bench_seed, "p3-churn-bench")

    def _one_event():
        victim = int(rng.choice(dyn.active_ids()))
        dyn.leave(victim)
        neigh = [int(x) for x in rng.choice(dyn.active_ids(), size=3, replace=False)]
        dyn.join(Peer(peer_id=-1, position=rng.uniform(0, 1, 2), quota=3), neigh)

    benchmark(_one_event)
