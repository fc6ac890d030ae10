"""The service's persistent instance against from-scratch authorities.

A :class:`MatchingService` keeps its ranked lists and eq.-9 weights
alive between events instead of rebuilding them.  These tests pin what
that must not change and what it must make cheap:

- **differential** — after every event, each ranked list equals the
  list :func:`build_preference_system` sorts from scratch, the weight
  store equals :func:`satisfaction_weights` bit for bit, and the
  partners equal :func:`lic_matching` on the compacted instance;
- **locality** — an event scores only the pairs it touches: no metric
  call for a leave or crash, ``2k`` for a join with ``k`` neighbours,
  ``2·deg`` for a position update, at any overlay size.
"""

import pytest

from repro.core.lic import lic_matching
from repro.core.weights import satisfaction_weights
from repro.experiments.instances import topology_for_family
from repro.overlay.metrics import DistanceMetric, MetricAssignment, PrivateTasteMetric
from repro.overlay.peer import generate_peers
from repro.service.guards import ServiceGuard
from repro.service.runner import ServiceConfig, build_service
from repro.service.service import MatchingService
from repro.utils.rng import spawn_rng


def _assert_matches_scratch(svc: MatchingService) -> None:
    ps, ids, index = svc._compact_instance()
    for k, pid in enumerate(ids):
        assert svc._lists.ranked(pid) == [ids[j] for j in ps.preference_list(k)]
    wt = satisfaction_weights(ps)
    fresh = {(ids[i], ids[j]): w.hex() for (i, j), w in wt.items()}
    assert {e: w.hex() for e, w in svc._wcache._w.items()} == fresh
    served = svc._matching_compact(index)
    assert served.edge_set() == lic_matching(wt, ps.quotas).edge_set()


def _replay_against_scratch(svc, trace) -> None:
    _assert_matches_scratch(svc)
    for event in trace.events:
        assert svc.apply(event).guard_ok
        _assert_matches_scratch(svc)


class TestDifferential:
    @pytest.mark.parametrize(
        "over",
        [
            dict(workload="poisson"),
            dict(workload="flash"),
            dict(workload="diurnal"),
            dict(workload="storm"),
        ],
        ids=lambda over: "-".join(f"{k}={v}" for k, v in over.items()),
    )
    def test_every_event_matches_from_scratch(self, over):
        config = ServiceConfig(n=30, seed=4, events=30, **over)
        _replay_against_scratch(build_service(config), config.trace())

    def test_metric_assignment(self):
        config = ServiceConfig(n=30, seed=6, events=30, workload="poisson")
        rng = spawn_rng(config.seed, "service-init", config.family, str(config.n))
        topology = topology_for_family(config.family, config.n, rng)
        peers = generate_peers(config.n, rng, quota_range=(2, 4))
        # every third peer ranks by distance alone, the rest by taste
        metric = MetricAssignment(
            PrivateTasteMetric(config.seed, base=DistanceMetric(), blend=0.5),
            {p.peer_id: DistanceMetric() for p in peers[::3]},
        )
        _replay_against_scratch(MatchingService(topology, peers, metric), config.trace())


class _NoWeightCheck(ServiceGuard):
    """The weight guard re-scores pairs through the metric; keep it out."""

    def check_weights(self, service, report):
        pass


class _CountingMetric:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return self.inner(a, b)


class TestLocality:
    @pytest.mark.parametrize("n", (200, 800))
    def test_metric_calls_track_the_touched_region(self, n):
        config = ServiceConfig(n=n, seed=2, events=30, workload="poisson")
        rng = spawn_rng(config.seed, "service-init", config.family, str(n))
        topology = topology_for_family(config.family, n, rng)
        peers = generate_peers(n, rng, quota_range=(3, 3))
        metric = _CountingMetric(config.metric())
        svc = MatchingService(topology, peers, metric)
        svc.guard = _NoWeightCheck()
        seen = set()
        for event in config.trace().events:
            alive = svc.active_ids()
            victim = alive[event.r % len(alive)]
            deg = len(svc._adj[victim])
            before = metric.calls
            out = svc.apply(event)
            calls = metric.calls - before
            assert svc.counters["full_resolves"] == 0
            if event.kind == "join":
                assert calls == 2 * len(svc._adj[out.peer_id])
            elif event.kind == "update":
                assert calls == 2 * deg
            else:
                assert calls == 0
            seen.add(event.kind)
        assert seen == {"join", "leave", "crash", "update"}
