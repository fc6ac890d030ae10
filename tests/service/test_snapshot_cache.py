"""Tests for the service's cached snapshot values.

A snapshot's peer records and adjacency lists are read-only
:class:`FrozenRecord` / :class:`FrozenList` values that the service
keeps until an event touches their peer, and the checkpoint encoder
splices their cached text.  These tests pin that the encoded state is
byte-identical to encoding a freshly built snapshot, that an event
drops exactly the entries it may have changed, and that the values
behave as read-only JSON.
"""

import copy
import json
import pickle

import numpy as np
import pytest

from repro.overlay.peer import Peer
from repro.service import checkpoint
from repro.service.checkpoint import FrozenList, FrozenRecord
from repro.service.runner import ServiceConfig, _matching_sha, build_service
from repro.service.service import MatchingService


def _dumps(state) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _reference_snapshot(svc: MatchingService) -> dict:
    """The snapshot built from scratch, as it was before values were cached."""
    return {
        "next_id": svc._next_id,
        "mode": svc.mode,
        "cooldown": svc._cooldown,
        "guard_cursor": svc.guard._weight_cursor,
        "counters": dict(svc.counters),
        "peers": [
            {
                "peer_id": p.peer_id,
                "position": p.position.tolist(),
                "interests": p.interests.tolist(),
                "bandwidth": float(p.bandwidth),
                "reliability": float(p.reliability),
                "quota": int(p.quota),
            }
            for _, p in sorted(svc._peers.items())
        ],
        "adjacency": {str(pid): sorted(svc._adj[pid]) for pid in sorted(svc._adj)},
    }


def _assert_encodes_as_reference(svc: MatchingService) -> None:
    snap = svc.snapshot()
    assert checkpoint._canonical(snap) == _dumps(_reference_snapshot(svc))
    assert snap == json.loads(json.dumps(snap))


def _plant_one_sided_partner(svc: MatchingService) -> None:
    """Give a peer with spare quota an unmatched neighbour it alone holds."""
    for p in svc.active_ids():
        mine = svc._partners[p]
        spare = sorted(svc._adj[p] - mine)
        if spare and len(mine) < svc._lists.quota(p):
            mine.add(spare[0])
            return
    raise AssertionError("no peer to plant on")


class TestDifferential:
    """After every event the spliced encoding equals the from-scratch one."""

    @pytest.mark.parametrize("family", ["geo", "er", "ba"])
    @pytest.mark.parametrize("workload", ["poisson", "storm", "flash", "diurnal"])
    def test_every_event_encodes_as_the_reference(self, workload, family):
        for seed in (0, 1):
            config = ServiceConfig(
                n=40, quota=2, family=family, seed=seed, events=60,
                workload=workload, differential_every=0,
            )
            svc = build_service(config)
            _assert_encodes_as_reference(svc)
            for seq, event in enumerate(config.trace().events, 1):
                svc.apply(event)
                _assert_encodes_as_reference(svc)
                if seq == 20:
                    svc = MatchingService.restore(
                        json.loads(json.dumps(svc.snapshot())), config.metric()
                    )
                    _assert_encodes_as_reference(svc)
                elif seq == 35:
                    # the guard pass finds the plant and the service
                    # answers the next events with full re-solves
                    _plant_one_sided_partner(svc)
                    assert not svc._guard_pass()
                    _assert_encodes_as_reference(svc)
            assert svc.counters["degraded_entries"] >= 1


def _by_peer(snap: dict) -> dict:
    return {rec["peer_id"]: rec for rec in snap["peers"]}


class TestInvalidation:
    @staticmethod
    def _service() -> MatchingService:
        return build_service(ServiceConfig(n=40, seed=2, events=0))

    @staticmethod
    def _assert_untouched_are_shared(before: dict, after: dict, touched: set) -> None:
        old, new = _by_peer(before), _by_peer(after)
        kept = (set(old) & set(new)) - touched
        assert kept
        for pid in kept:
            assert new[pid] is old[pid]
            assert after["adjacency"][str(pid)] is before["adjacency"][str(pid)]

    def test_update_changes_the_movers_record(self):
        svc = self._service()
        before = svc.snapshot()
        mover = svc.active_ids()[5]
        svc.update_position(mover, [0.25, 0.75])
        after = svc.snapshot()
        assert _by_peer(after)[mover].text != _by_peer(before)[mover].text
        assert _by_peer(after)[mover]["position"] == [0.25, 0.75]
        self._assert_untouched_are_shared(before, after, {mover} | svc._adj[mover])

    def test_join_changes_the_neighbours_adjacency(self):
        svc = self._service()
        before = svc.snapshot()
        neighbours = set(svc.active_ids()[:4])
        pid, _ = svc.join(Peer(peer_id=-1, position=np.array([0.5, 0.5])), neighbours)
        after = svc.snapshot()
        for q in neighbours:
            assert after["adjacency"][str(q)].text != before["adjacency"][str(q)].text
            assert pid in after["adjacency"][str(q)]
        assert after["adjacency"][str(pid)] == sorted(neighbours)
        self._assert_untouched_are_shared(before, after, neighbours | {pid})

    @pytest.mark.parametrize("how", ["leave", "crash"])
    def test_leave_removes_the_leavers_entry(self, how):
        svc = self._service()
        before = svc.snapshot()
        leaver = svc.active_ids()[7]
        neighbours = set(svc._adj[leaver])
        getattr(svc, how)(leaver)
        assert leaver not in svc._frozen
        after = svc.snapshot()
        assert leaver not in _by_peer(after)
        assert str(leaver) not in after["adjacency"]
        for q in neighbours:
            assert leaver not in after["adjacency"][str(q)]
        self._assert_untouched_are_shared(before, after, neighbours | {leaver})

    def test_degraded_entry_drops_every_entry(self):
        svc = self._service()
        svc.snapshot()
        assert len(svc._frozen) == svc.n
        _plant_one_sided_partner(svc)
        assert not svc._guard_pass()
        assert svc._frozen == {}
        assert checkpoint._canonical(svc.snapshot()) == _dumps(_reference_snapshot(svc))

    def test_entries_are_built_by_the_first_snapshot_only(self):
        svc = self._service()
        assert svc._frozen == {}
        restored = MatchingService.restore(svc.snapshot(), ServiceConfig(seed=2).metric())
        assert restored._frozen == {}
        first, second = svc.snapshot(), svc.snapshot()
        assert all(a is b for a, b in zip(first["peers"], second["peers"]))
        assert first["peers"] is not second["peers"]
        assert first["adjacency"] is not second["adjacency"]


class TestReadOnly:
    @staticmethod
    def _snapshot() -> dict:
        return build_service(ServiceConfig(n=12, seed=1, events=0)).snapshot()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda rec: rec.__setitem__("quota", 9),
            lambda rec: rec.update(quota=9),
            lambda rec: rec.pop("quota"),
            lambda rec: rec.__delitem__("quota"),
            lambda rec: rec.setdefault("extra", 1),
            lambda rec: rec.clear(),
            lambda rec: rec["position"].__setitem__(0, 9.0),
            lambda rec: rec["position"].append(9.0),
            lambda rec: rec["interests"].sort(),
            lambda rec: rec["interests"].pop(),
            lambda rec: setattr(rec, "text", "{}"),
            lambda rec: setattr(rec, "_text", "{}"),
        ],
        ids=[
            "setitem", "update", "pop", "delitem", "setdefault", "clear",
            "list-setitem", "append", "sort", "list-pop", "text", "_text",
        ],
    )
    def test_records_refuse_mutation(self, mutate):
        rec = self._snapshot()["peers"][3]
        text, plain = rec.text, json.loads(rec.text)
        with pytest.raises(TypeError, match="read-only"):
            mutate(rec)
        assert rec == plain and rec.text == text

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda adj: adj.__setitem__(0, 99),
            lambda adj: adj.append(99),
            lambda adj: adj.extend([99]),
            lambda adj: adj.insert(0, 99),
            lambda adj: adj.pop(),
            lambda adj: adj.remove(adj[0]),
            lambda adj: adj.sort(reverse=True),
            lambda adj: adj.reverse(),
            lambda adj: adj.clear(),
            lambda adj: adj.__iadd__([99]),
            lambda adj: adj.__imul__(2),
        ],
        ids=[
            "setitem", "append", "extend", "insert", "pop", "remove", "sort",
            "reverse", "clear", "iadd", "imul",
        ],
    )
    def test_adjacency_lists_refuse_mutation(self, mutate):
        adj = self._snapshot()["adjacency"]["3"]
        text, plain = adj.text, list(adj)
        with pytest.raises(TypeError, match="read-only"):
            mutate(adj)
        assert adj == plain and adj.text == text

    def test_snapshot_equals_its_json_round_trip(self):
        snap = self._snapshot()
        assert snap == json.loads(json.dumps(snap))
        assert isinstance(snap["peers"][0], FrozenRecord)
        assert isinstance(snap["peers"][0]["position"], FrozenList)
        assert isinstance(snap["adjacency"]["0"], FrozenList)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.deepcopy, copy.copy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["deepcopy", "copy", "pickle"],
    )
    def test_copies_compare_equal(self, round_trip):
        snap = self._snapshot()
        clone = round_trip(snap)
        assert clone == snap
        assert checkpoint._canonical(clone) == checkpoint._canonical(snap)
        rec = clone["peers"][0]
        assert type(rec) is FrozenRecord and type(rec["position"]) is FrozenList
        assert rec.text == snap["peers"][0].text
        with pytest.raises(TypeError):
            rec["quota"] = 9

    def test_restore_from_a_snapshot_equals_restore_from_json(self):
        config = ServiceConfig(n=30, seed=4, events=12, workload="storm")
        svc = build_service(config)
        for event in config.trace().events:
            svc.apply(event)
        direct = MatchingService.restore(svc.snapshot(), config.metric())
        via_json = MatchingService.restore(
            json.loads(json.dumps(svc.snapshot())), config.metric()
        )
        assert direct.snapshot() == via_json.snapshot()
        assert checkpoint._canonical(direct.snapshot()) == checkpoint._canonical(
            via_json.snapshot()
        )
        assert _matching_sha(direct) == _matching_sha(via_json)


_REC = FrozenRecord(peer_id=1, position=FrozenList([0.1, -0.0]), quota=2)
_ADJ = FrozenList([3, 1, 2])


@pytest.mark.parametrize(
    "state",
    [
        {},
        {"peers": []},
        {"adjacency": {}},
        {"peers": [_REC, {"peer_id": 2, "position": [1e-300]}, _REC]},
        {"peers": [_REC, _REC], "adjacency": {"1": _ADJ, "10": _ADJ, "2": _ADJ}},
        {"adjacency": {"1": _ADJ, "2": [4, 5]}, "x": None},
        {"nested": {"deeper": [_REC, {"r": _REC}], "list": _ADJ}},
        {"frozen": _REC, "lists": [_ADJ, [_ADJ]]},
        {"ünï": [_REC], "☃": {"é": _ADJ}, "b": True, "f": 2.5e17},
        {"nan": FrozenList([float("nan"), float("inf"), -float("inf")])},
        {2: [_REC], 10: {"1": _ADJ}},
        {"adjacency": {1: _ADJ, 10: _ADJ, 2: _ADJ}},
        [_REC, _ADJ],
        _REC,
        "state",
        7,
        None,
    ],
    ids=lambda s: type(s).__name__ + ":" + repr(s)[:40],
)
def test_canonical_matches_a_whole_state_dump(state):
    assert checkpoint._canonical(state) == _dumps(state)


def test_canonical_refuses_unsortable_keys_as_a_whole_state_dump_does():
    state = {"a": 1, 3: [_REC]}
    with pytest.raises(TypeError, match="not supported"):
        _dumps(state)
    with pytest.raises(TypeError, match="not supported"):
        checkpoint._canonical(state)
