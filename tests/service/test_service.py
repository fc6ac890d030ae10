"""Tests for the self-healing :class:`MatchingService`.

Covers deterministic event application, config validation, the
differential check failing on planted faults, the invariant →
degraded-mode ladder (including unrecoverable corruption, corruption
the repair itself runs into and corruption outside its seed), the
repair's seed, and exact snapshot/restore round-trips.
"""

import json

import pytest

from repro.overlay.churn import DynamicOverlay
from repro.overlay.peer import Peer
from repro.overlay.scenario import build_scenario
from repro.service.differential import conformance_check
from repro.service.events import ChurnEvent
from repro.service.guards import GuardReport, ServiceGuard
from repro.service.runner import (
    ServiceConfig,
    _matching_sha,
    build_service,
    run_service,
)
from repro.service.service import (
    DEGRADED_RECOVERY,
    WEIGHT_CHECK_EVERY,
    MatchingService,
    ServiceCorruption,
)
from repro.telemetry.sink import canonical_fields
from repro.utils.validation import InvalidInstanceError, InvalidMatchingError


def _small(**over) -> ServiceConfig:
    base = dict(n=14, quota=2, seed=3, events=24, workload="poisson",
                differential_every=12)
    base.update(over)
    return ServiceConfig(**base)


class TestDeterminism:
    def test_replay_is_deterministic(self):
        a = run_service(_small()).report
        b = run_service(_small()).report
        assert canonical_fields(a) == canonical_fields(b)
        assert a["matching_sha"] == b["matching_sha"]

    def test_apply_resolves_events_against_state(self):
        config = _small(events=16, workload="storm")
        svc = build_service(config)
        for event in config.trace().events:
            outcome = svc.apply(event)
            assert outcome.seq == event.seq
            assert outcome.mode in ("incremental", "degraded")
            if outcome.applied and event.kind != "join":
                assert outcome.peer_id is not None
        counts = {k: svc.counters[k]
                  for k in ("joins", "leaves", "crashes", "updates")}
        trace_counts = config.trace().kind_counts()
        # every applied event lands in exactly one kind counter
        assert sum(counts.values()) + svc.counters["skipped"] == len(
            config.trace()
        )
        assert counts["joins"] == trace_counts["join"]

    def test_joiners_take_the_config_quota(self):
        config = ServiceConfig(n=30, quota=1, events=40)
        svc = run_service(config).service
        joiners = [p for pid, p in svc._peers.items() if pid >= config.n]
        assert joiners
        assert all(p.quota == 1 and len(svc._partners[p.peer_id]) <= 1 for p in joiners)

    def test_run_report_shape(self):
        report = run_service(_small()).report
        assert report["engine"] == "lid-service"
        assert report["completed"] is True
        assert report["trace_events"] == 24
        assert report["differential_ok"] is True
        assert report["oracle_violations"] == 0
        assert report["guard_violations"] == 0


class TestBudgetModes:
    @pytest.mark.parametrize("field", ["family", "workload"])
    def test_config_validates_family_and_workload(self, field):
        with pytest.raises(ValueError, match=field):
            _small(**{field: "nope"})


def _drop_a_matched_edge(svc: MatchingService) -> None:
    p = min(pid for pid, mine in svc._partners.items() if mine)
    q = min(svc._partners[p])
    svc._partners[p].discard(q)
    svc._partners[q].discard(p)


def _overfill_a_full_peer(svc: MatchingService) -> None:
    p = min(
        pid for pid, mine in svc._partners.items()
        if len(mine) == svc._lists.quota(pid) and svc._adj[pid] - mine
    )
    q = min(svc._adj[p] - svc._partners[p])
    svc._partners[p].add(q)
    svc._partners[q].add(p)


class TestDifferentialCheck:
    """The from-scratch check fails on a served matching that is not LIC."""

    @pytest.mark.parametrize(
        "plant", [_drop_a_matched_edge, _overfill_a_full_peer],
        ids=["dropped-edge", "over-quota"],
    )
    def test_planted_fault_fails_the_check(self, plant):
        svc = build_service(ServiceConfig(n=40, events=0, seed=1))
        assert conformance_check(svc).ok
        plant(svc)
        report = conformance_check(svc)
        assert not report.ok
        assert not report.matches_fresh_solve
        if plant is _drop_a_matched_edge:
            # still feasible, so only the comparison with LIC catches it
            assert report.oracle_violations == []
            assert (report.missing_edges, report.extra_edges) == (1, 0)
            assert report.blocking_edges == 5
        else:
            assert any(v.startswith("[quota]") for v in report.oracle_violations)


class _AlwaysViolated(ServiceGuard):
    def check_structure(self, service, report):
        report.violations.append("injected: permanent fault")


#: partner-set corruptions, planted inside or outside the region an
#: event's repair touches
PLANTS = ("over-quota", "non-neighbour", "departed", "no-set")


def _plant(overlay: DynamicOverlay, peer: int, plant: str) -> None:
    mine = overlay._partners[peer]
    if plant == "over-quota":
        spare = sorted(overlay._adj[peer] - mine)
        mine.update(spare[: overlay._lists.quota(peer) + 1 - len(mine)])
        assert len(mine) > overlay._lists.quota(peer)
    elif plant == "non-neighbour":
        mine.add(max(set(overlay._peers) - overlay._adj[peer] - {peer}))
    elif plant == "departed":
        mine.add(10**6)  # an id no live peer holds
    else:
        del overlay._partners[peer]


class TestDegradedLadder:
    @staticmethod
    def _poison_cache(svc):
        # drift every cached eq.-9 weight; repair heals only the entries
        # incident to the event's dirty set, the rest stay poisoned (the
        # ws family keeps neighbourhoods small enough for some to survive)
        for key in list(svc._wcache._w):
            svc._wcache._w[key] += 1.0

    def test_poisoned_weight_cache_trips_guard(self):
        config = _small(n=40, family="ws", events=WEIGHT_CHECK_EVERY)
        svc = build_service(config)
        trace = config.trace().events
        for event in trace[:-2]:
            svc.apply(event)
        self._poison_cache(svc)
        # the structural guard runs on every event and sees no drift; the
        # sampled weight guard runs on every WEIGHT_CHECK_EVERY-th event
        assert svc.apply(trace[-2]).guard_ok
        assert svc.mode == "incremental"
        outcome = svc.apply(trace[-1])
        assert outcome.guard_ok is False
        assert svc.mode == "degraded"
        assert svc.counters["guard_violations"] >= 1
        assert svc.counters["degraded_entries"] == 1
        # the full re-solve rebuilt the cache and healed the state
        report = GuardReport()
        svc.guard.check_structure(svc, report)
        svc.guard.check_weights(svc, report)
        assert report.ok

    def test_recovery_after_clean_cooldown(self):
        config = _small(n=40, family="ws", events=WEIGHT_CHECK_EVERY + DEGRADED_RECOVERY)
        svc = build_service(config)
        trace = config.trace().events
        for event in trace[: WEIGHT_CHECK_EVERY - 1]:
            svc.apply(event)
        self._poison_cache(svc)
        svc.apply(trace[WEIGHT_CHECK_EVERY - 1])
        assert svc.mode == "degraded"
        # degraded events answer with full re-solves until the ladder
        # releases after DEGRADED_RECOVERY consecutive clean passes
        for event in trace[WEIGHT_CHECK_EVERY:-1]:
            before = svc.counters["full_resolves"]
            svc.apply(event)
            assert svc.mode == "degraded"
            assert svc.counters["full_resolves"] > before
        svc.apply(trace[-1])
        assert svc.mode == "incremental"
        assert svc.counters["degraded_entries"] == 1

    def test_unrecoverable_corruption_raises(self):
        config = _small(events=4)
        svc = build_service(config)
        svc.guard = _AlwaysViolated()
        with pytest.raises(ServiceCorruption, match="survived a full re-solve"):
            svc.apply(config.trace().events[0])

    def test_emptied_service_resolves_from_scratch(self):
        # with every peer gone there is no instance to lower: a full
        # re-solve, and the degraded mode that runs one, leave empty
        # lists, an empty cache and no partners
        svc = build_service(ServiceConfig(n=3, events=0))
        for pid in svc.active_ids():
            svc.leave(pid)
        svc.full_rematch()
        assert (svc.n, svc._partners, len(svc._wcache)) == (0, {}, 0)
        svc._enter_degraded(GuardReport(violations=["injected"]))
        assert svc.mode == "degraded"
        assert (svc._partners, len(svc._wcache), list(svc._lists.peers())) == ({}, 0, [])
        report = conformance_check(svc)
        assert (report.n, report.ok) == (0, True)

    def test_emptied_overlay_reports_zero_satisfaction(self):
        # eq. 1 sums over an empty node set; an instance of no nodes
        # still does not exist
        svc = build_service(ServiceConfig(n=3, events=0))
        for pid in svc.active_ids():
            svc.leave(pid)
        assert svc.total_satisfaction() == 0.0
        with pytest.raises(InvalidInstanceError):
            svc.instance()

    def test_differential_checks_of_an_emptied_overlay(self):
        # both peers leave first, so the sampled checks after them run
        # on an overlay without peers
        config = ServiceConfig(n=2, seed=0, events=10, differential_every=1)
        assert [e.kind for e in config.trace().events[:2]] == ["leave", "leave"]
        report = run_service(config).report
        assert (report["differential_checks"], report["differential_ok"]) == (11, True)

    @pytest.mark.parametrize("plant", PLANTS)
    def test_corruption_the_repair_meets_degrades(self, plant):
        config = ServiceConfig(n=200, quota=2, seed=3, events=40)
        svc = build_service(config)
        event = next(e for e in config.trace().events if e.kind == "update")
        alive = svc.active_ids()
        moved = alive[event.r % len(alive)]
        _plant(svc, min(svc._adj[moved]), plant)
        outcome = svc.apply(event)
        assert outcome.applied and outcome.guard_ok is False
        assert svc.mode == "degraded"
        assert svc.counters["guard_violations"] >= 1
        assert svc.counters["degraded_entries"] == 1
        assert svc.counters["updates"] == 1
        assert conformance_check(svc).ok

    @pytest.mark.parametrize("plant", PLANTS)
    def test_bare_overlay_still_raises(self, plant):
        sc = build_scenario("geo_latency", 40, seed=3)
        dyn = DynamicOverlay(sc.topology, sc.peers, sc.metric)
        leaver = dyn.active_ids()[0]
        # matched to a neighbour of the leaver, not a neighbour itself:
        # the leave changes neither its list nor its partners, but it
        # re-weights a partner's edges, so the repair starts from it
        near = dyn._adj[leaver]
        partners = set().union(*(dyn._partners[q] for q in near))
        _plant(dyn, min(partners - near - {leaver}), plant)
        with pytest.raises(InvalidMatchingError):
            dyn.leave(leaver)

    @pytest.mark.parametrize("plant", ["over-quota", "non-neighbour", "departed"])
    def test_bare_overlay_reports_what_the_guard_reports(self, plant):
        # the repair's region check and the structure guard run one rule,
        # so a plant the region check meets fails the leave with the text
        # the guard then finds in the whole overlay
        sc = build_scenario("geo_latency", 40, seed=3)
        dyn = DynamicOverlay(sc.topology, sc.peers, sc.metric)
        leaver = dyn.active_ids()[0]
        # a partner of the leaver with a spare slot: the leave frees
        # another, so the repair weighs no non-edge at it and leaves the
        # plant to the region check
        partner = min(
            q for q in dyn._partners[leaver]
            if len(dyn._partners[q]) < dyn._lists.quota(q)
        )
        _plant(dyn, partner, plant)
        with pytest.raises(InvalidMatchingError) as raised:
            dyn.leave(leaver)
        report = GuardReport()
        ServiceGuard().check_structure(dyn, report)
        assert report.violations
        assert str(raised.value) == "; ".join(report.violations)

    @pytest.mark.parametrize("plant", PLANTS)
    def test_corruption_outside_the_repair_seed_degrades(self, plant):
        # two hops from the leaver and matched to none of its
        # neighbours: outside the seed of the leave's repair, inside the
        # structure guard's scan of the same event
        svc = build_service(ServiceConfig(n=40, events=0, seed=3))
        leaver = svc.active_ids()[0]
        near = svc._adj[leaver]
        far = min(
            p
            for p in set().union(*(svc._adj[q] for q in near)) - near - {leaver}
            if not svc._partners[p] & near
        )
        _plant(svc, far, plant)
        outcome = svc.apply(ChurnEvent(seq=0, t=0.0, kind="leave", r=0))
        assert (outcome.applied, outcome.peer_id) == (True, leaver)
        assert outcome.guard_ok is False
        assert svc.mode == "degraded"
        assert svc.counters["degraded_entries"] == 1
        assert conformance_check(svc).ok

    @pytest.mark.parametrize("how", ["leave", "crash", "apply"])
    def test_a_leaver_matched_to_a_departed_peer_degrades(self, how):
        svc = build_service(ServiceConfig(n=20, events=0, seed=1))
        svc.snapshot()  # caches every peer's record and adjacency
        leaver = svc.active_ids()[0]
        _plant(svc, leaver, "departed")
        if how == "apply":
            assert svc.apply(ChurnEvent(seq=0, t=0.0, kind="crash", r=0)).guard_ok is False
        else:
            assert getattr(svc, how)(leaver).resolutions == 0
            # no repair ran to drop the neighbours' cached adjacency
            assert all(leaver not in adj for adj in svc.snapshot()["adjacency"].values())
            assert svc._guard_pass() is False
        assert svc.mode == "degraded"
        assert leaver not in svc._peers and leaver not in svc._partners
        assert conformance_check(svc).ok

    def test_bare_overlay_raises_on_a_departed_partner_of_the_leaver(self):
        sc = build_scenario("geo_latency", 20, seed=1)
        dyn = DynamicOverlay(sc.topology, sc.peers, sc.metric)
        leaver = dyn.active_ids()[0]
        _plant(dyn, leaver, "departed")
        with pytest.raises(InvalidMatchingError, match=f"departed peers \\[{10**6}\\]"):
            dyn.leave(leaver)
        # the leaver is gone completely, partnerships with live peers too
        assert leaver not in dyn._peers and leaver not in dyn._partners
        assert all(leaver not in mine for mine in dyn._partners.values())


class TestRepairSeed:
    """A repair starts from the changed peers and the peers matched to them."""

    @pytest.mark.parametrize("kind", ["join", "leave", "update"])
    def test_seed_is_the_changed_peers_and_their_partners(self, kind, monkeypatch):
        import repro.overlay.churn as churn

        svc = build_service(ServiceConfig(n=40, events=0, seed=3))
        pid = max(svc.active_ids(), key=lambda p: (len(svc._partners[p]), -p))
        before = {p: set(mine) for p, mine in svc._partners.items()}
        seeds = []
        real = churn.greedy_repair

        def spy(wt, quota, partners, dirty):
            seeds.append(set(dirty))
            return real(wt, quota, partners, dirty)

        monkeypatch.setattr(churn, "greedy_repair", spy)
        if kind == "join":
            neigh = sorted(svc._adj[pid])[:4]
            joiner, _ = svc.join(Peer(peer_id=-1, position=(0.5, 0.5)), neigh)
            changed = {joiner, *neigh}
        elif kind == "leave":
            changed = set(svc._adj[pid])
            svc.leave(pid)
        else:
            changed = {pid} | svc._adj[pid]
            svc.update_position(pid, (0.5, 0.5))
        gone = {pid} if kind == "leave" else set()
        expected = set(changed)
        for q in changed:
            expected |= before.get(q, set()) - gone
        assert seeds == [expected]
        # strictly inside the changed peers' neighbourhoods, so a seed
        # that takes them whole fails the pin
        two_hops = changed.union(*(svc._adj[q] for q in changed))
        assert expected < two_hops


def _corrupt(state: dict, how: str) -> None:
    """Edit a snapshot's JSON copy into one ``restore`` must refuse."""
    adjacency = state["adjacency"]
    p = min(adjacency, key=int)
    if how == "null-quota":
        state["peers"][0]["quota"] = None
    elif how == "fractional-quota":
        state["peers"][0]["quota"] = 2.5
    elif how == "string-quota":
        state["peers"][0]["quota"] = "3"
    elif how == "null-peers":
        state["peers"] = None
    elif how == "missing-counters":
        del state["counters"]
    elif how == "null-counters":
        state["counters"] = None
    elif how == "null-adjacency":
        state["adjacency"] = None
    elif how == "adjacency-as-list":
        state["adjacency"] = []
    elif how == "nan-position":
        state["peers"][0]["position"][0] = float("nan")
    elif how == "null-interests":
        state["peers"][0]["interests"] = None
    elif how == "non-peer-neighbour":
        adjacency[p].append(10**6)
    elif how == "peer-without-adjacency":
        del adjacency[p]
    elif how == "asymmetric":
        adjacency[p].pop(0)
    elif how == "self-loop":
        adjacency[p].append(int(p))
    elif how == "adjacency-of-non-peer":
        adjacency[str(10**6)] = []
    elif how == "duplicate-peer":
        state["peers"].append(state["peers"][0])
    else:
        state["next_id"] = max(rec["peer_id"] for rec in state["peers"])


CORRUPTIONS = (
    "null-quota",
    "fractional-quota",
    "string-quota",
    "null-peers",
    "missing-counters",
    "null-counters",
    "null-adjacency",
    "adjacency-as-list",
    "nan-position",
    "null-interests",
    "non-peer-neighbour",
    "peer-without-adjacency",
    "asymmetric",
    "self-loop",
    "adjacency-of-non-peer",
    "duplicate-peer",
    "stale-next-id",
)


class TestSnapshotRestore:
    def test_snapshot_survives_json_exactly(self):
        config = _small(events=10, workload="flash")
        svc = build_service(config)
        for event in config.trace().events:
            svc.apply(event)
        snap = svc.snapshot()
        restored = MatchingService.restore(
            json.loads(json.dumps(snap)), config.metric()
        )
        assert restored.snapshot() == snap
        assert _matching_sha(restored) == _matching_sha(svc)

    def test_restored_service_replays_identically(self):
        config = _small(events=20)
        trace = config.trace().events
        svc = build_service(config)
        for event in trace[:10]:
            svc.apply(event)
        clone = MatchingService.restore(
            json.loads(json.dumps(svc.snapshot())), config.metric()
        )
        for event in trace[10:]:
            svc.apply(event)
            clone.apply(event)
        assert _matching_sha(clone) == _matching_sha(svc)
        assert clone.counters == svc.counters
        assert clone.mode == svc.mode

    @pytest.mark.parametrize("workload", ["poisson", "flash", "diurnal", "storm"])
    def test_restore_rebuilds_the_live_weight_cache(self, workload):
        # snapshots carry no weights: restore re-derives the cache from
        # the peers and adjacency, and it must equal the cache the live
        # service kept up to date event by event, keys and floats
        config = _small(n=40, events=40, workload=workload)
        svc = build_service(config)
        for seq, event in enumerate(config.trace().events, 1):
            svc.apply(event)
            if seq % 10:
                continue
            clone = MatchingService.restore(
                json.loads(json.dumps(svc.snapshot())), config.metric()
            )
            assert {e: w.hex() for e, w in clone._wcache._w.items()} == {
                e: w.hex() for e, w in svc._wcache._w.items()
            }
            assert clone._partners == svc._partners

    def test_restore_re_solves_a_corrupt_matching(self):
        # a dropped matched edge leaves a feasible matching the structure
        # guard cannot see; the snapshot holds no partners, so the
        # restore's solve serves the LIC matching again
        config = _small(n=40, events=10)
        svc = build_service(config)
        for event in config.trace().events:
            svc.apply(event)
        _drop_a_matched_edge(svc)
        report = GuardReport()
        svc.guard.check_structure(svc, report)
        assert report.ok
        restored = MatchingService.restore(
            json.loads(json.dumps(svc.snapshot())), config.metric()
        )
        assert not conformance_check(svc).ok
        assert conformance_check(restored).ok

    def test_a_degraded_snapshot_restores_degraded(self):
        svc = build_service(_small(events=0))
        svc._enter_degraded(GuardReport(violations=["injected"]))
        svc._cooldown = 3
        restored = MatchingService.restore(
            json.loads(json.dumps(svc.snapshot())), _small().metric()
        )
        assert (restored.mode, restored._cooldown) == ("degraded", 3)
        assert restored.counters == svc.counters

    @pytest.mark.parametrize("how", CORRUPTIONS)
    def test_restore_rejects_a_corrupt_topology(self, how):
        config = ServiceConfig(n=30, events=0)
        state = json.loads(json.dumps(build_service(config).snapshot()))
        _corrupt(state, how)
        with pytest.raises(ValueError, match="corrupt snapshot"):
            MatchingService.restore(state, config.metric())

    def test_restore_rejects_unknown_mode(self):
        svc = build_service(_small(events=0))
        state = svc.snapshot()
        state["mode"] = "zombie"
        with pytest.raises(ValueError, match="unknown mode"):
            MatchingService.restore(state, _small().metric())
