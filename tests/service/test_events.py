"""Tests for the deterministic churn workload drivers."""

import pytest

from repro.service.events import (
    EVENT_KINDS,
    WORKLOADS,
    ChurnEvent,
    make_trace,
    poisson_trace,
    storm_trace,
)


class TestChurnEvent:
    def test_round_trip(self):
        ev = ChurnEvent(
            seq=3, t=1.5, kind="join", r=42, degree=4, quota=3,
            position=(0.25, 0.75),
        )
        assert ChurnEvent.from_record(ev.to_record()) == ev

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            ChurnEvent(seq=0, t=0.0, kind="explode")

    def test_entropy_bounds(self):
        with pytest.raises(ValueError, match="selector entropy"):
            ChurnEvent(seq=0, t=0.0, kind="leave", r=-1)
        with pytest.raises(ValueError, match="selector entropy"):
            ChurnEvent(seq=0, t=0.0, kind="leave", r=2**53)


class TestDrivers:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_deterministic_in_seed(self, name):
        a = make_trace(name, 60, seed=7, quota=3)
        b = make_trace(name, 60, seed=7, quota=3)
        other = make_trace(name, 60, seed=8, quota=3)
        assert a.events == b.events
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != other.fingerprint()

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_length_kinds_and_monotone_time(self, name):
        trace = make_trace(name, 50, seed=1, quota=3)
        assert len(trace) == 50
        assert sum(trace.kind_counts().values()) == 50
        for e in trace.events:
            assert e.kind in EVENT_KINDS
        times = [e.t for e in trace.events]
        assert times == sorted(times)
        seqs = [e.seq for e in trace.events]
        assert seqs == list(range(50))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_json_round_trip_preserves_fingerprint(self, name):
        import json

        trace = make_trace(name, 30, seed=5, quota=3)
        records = json.loads(json.dumps([e.to_record() for e in trace.events]))
        rebuilt = tuple(ChurnEvent.from_record(r) for r in records)
        assert rebuilt == trace.events

    def test_poisson_mix_validation(self):
        with pytest.raises(ValueError, match="events"):
            poisson_trace(-1, 0, 3)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_joiners_carry_the_quota(self, name):
        trace = make_trace(name, 50, seed=1, quota=2)
        joins = [e for e in trace.events if e.kind == "join"]
        assert joins and {e.quota for e in joins} == {2}
        with pytest.raises(ValueError, match="quota"):
            make_trace(name, 50, seed=1, quota=0)

    def test_storm_alternates_and_mixes_crashes(self):
        trace = storm_trace(64, seed=3, quota=3)
        kinds = [e.kind for e in trace.events]
        # first storm is pure joins, second pure departures
        assert set(kinds[:16]) == {"join"}
        assert set(kinds[16:32]) <= {"leave", "crash"}
        counts = trace.kind_counts()
        assert counts["crash"] > 0 and counts["leave"] > 0

    def test_make_trace_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_trace("tsunami", 10, 0, 3)

    def test_gridspec_workload_names_stay_in_sync(self):
        # gridspec keeps a literal copy to avoid an import cycle; this
        # is the assertion that keeps the two lists from drifting
        from repro.experiments.gridspec import SERVICE_WORKLOADS

        assert tuple(sorted(WORKLOADS)) == tuple(sorted(SERVICE_WORKLOADS))
