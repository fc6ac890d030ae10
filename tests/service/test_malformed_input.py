"""Malformed positions are rejected before they can touch service state.

Under bisect-kept ranked lists a NaN score (false in every comparison)
would leave a list that disagrees with a fresh sort, and a position of
the wrong shape would break the distance metric for every later event.
Each public boundary therefore rejects such input before any state
changes, and the service keeps serving the next event.
"""

import json
import math

import numpy as np
import pytest

from repro.overlay.peer import Peer
from repro.service.differential import conformance_check
from repro.service.events import ChurnEvent
from repro.service.runner import ServiceConfig, build_service

BAD_POSITIONS = [
    (math.nan, 0.5),
    (0.5, math.inf),
    (-math.inf, 0.1),
    (0.1, 0.2, 0.3),
    (0.1,),
    (),
    (True, 0.5),
]


def _service():
    config = ServiceConfig(n=30, seed=1, events=12, workload="poisson")
    return config, build_service(config)


def _state(svc) -> str:
    # snapshots hold no partners, so the served matching is compared too
    partners = {str(pid): sorted(mine) for pid, mine in svc._partners.items()}
    return json.dumps([svc.snapshot(), partners], sort_keys=True)


class TestChurnEvent:
    @pytest.mark.parametrize("position", BAD_POSITIONS)
    def test_rejects_bad_position(self, position):
        with pytest.raises(ValueError, match="two finite floats"):
            ChurnEvent(seq=0, t=0.0, kind="update", position=position)

    def test_accepts_finite_pairs(self):
        assert ChurnEvent(seq=0, t=0.0, kind="join", position=(0, 1.5)).position == (0, 1.5)


class TestUpdatePosition:
    @pytest.mark.parametrize(
        "position",
        [(math.nan, 0.5), (0.5, math.inf), (0.1, 0.2, 0.3), [[0.1, 0.2]]],
    )
    def test_rejected_before_any_state_changes(self, position):
        config, svc = _service()
        pid = svc.active_ids()[0]
        before = _state(svc)
        with pytest.raises(ValueError, match="finite and shaped"):
            svc.update_position(pid, position)
        assert _state(svc) == before

    def test_service_applies_next_event_after_rejection(self):
        config, svc = _service()
        with pytest.raises(ValueError):
            svc.update_position(svc.active_ids()[0], (0.1, 0.2, 0.3))
        for event in config.trace().events:
            assert svc.apply(event).guard_ok
        assert conformance_check(svc).ok


class TestJoin:
    @pytest.mark.parametrize("position", [(math.nan, 0.5), (np.inf, 0.5)])
    def test_non_finite_joiner_rejected_without_side_effects(self, position):
        config, svc = _service()
        before = _state(svc)
        peer = Peer(peer_id=55, position=position)
        with pytest.raises(ValueError, match="non-finite position"):
            svc.join(peer, [svc.active_ids()[0]])
        assert peer.peer_id == 55
        assert _state(svc) == before
        for event in config.trace().events:
            assert svc.apply(event).guard_ok
        assert conformance_check(svc).ok
