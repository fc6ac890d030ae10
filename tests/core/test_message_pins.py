"""Literal message statistics of small seeded message-level LID runs.

The fast engine pins ``run_lid``'s default-channel statistics; these
literals pin the resilient runtime and a retransmitting ``run_lid``.  A
change to the protocol core that reorders a send, a timer or a jitter
draw moves these numbers even when every matching stays the same, so a
refactor must leave them untouched.
"""

import pytest

from repro.core.lid import run_lid
from repro.core.resilient_lid import run_resilient_lid
from repro.core.weights import satisfaction_weights
from repro.distsim.failures import BernoulliLoss, CrashSchedule
from repro.distsim.reliable import BackoffPolicy
from repro.testing.strategies import random_ps


def _budgeted():
    return BackoffPolicy(base=3.0, factor=2.0, cap=12.0, jitter=0.1, budget=10)


RUNS = {
    "resilient-clean": (run_resilient_lid, lambda: dict(seed=1)),
    "resilient-loss": (
        run_resilient_lid,
        lambda: dict(seed=5, drop_filter=BernoulliLoss(0.2), backoff=_budgeted()),
    ),
    "resilient-crash": (
        run_resilient_lid,
        lambda: dict(
            seed=5,
            crashes=CrashSchedule([(2.0, 0)]),
            backoff=_budgeted(),
            heartbeat_interval=1.0,
            suspect_after=5.0,
        ),
    ),
    "resilient-byzantine": (
        run_resilient_lid,
        lambda: dict(seed=2, byzantine={3: "reject_all", 7: "accept_all"}),
    ),
    "resilient-truncated": (run_resilient_lid, lambda: dict(seed=1, max_rounds=3)),
    "lid-retx-exponential": (
        run_lid,
        lambda: dict(
            seed=4,
            drop_filter=BernoulliLoss(0.2),
            retransmit_timeout=3.0,
            backoff="exponential",
        ),
    ),
    "lid-retx-none": (
        run_lid,
        lambda: dict(
            seed=4,
            drop_filter=BernoulliLoss(0.2),
            retransmit_timeout=3.0,
            backoff="none",
        ),
    ),
}

# sent_by_kind, events, end_time, retransmissions, matched edges,
# summed props_sent, summed rejs_sent
EXPECTED = {
    "resilient-clean": (
        {"ACK": 156, "DATA": 156, "HB": 14}, 535, 9.204764172318324, 0, 22, 66, 90,
    ),
    "resilient-loss": (
        {"ACK": 181, "DATA": 224, "HB": 60}, 729, 97.79301980094782, 72, 22, 67, 85,
    ),
    "resilient-crash": (
        {"ACK": 148, "DATA": 225, "HB": 33}, 737, 130.35347198447602, 70, 21, 66, 89,
    ),
    "resilient-byzantine": (
        {"ACK": 158, "DATA": 158, "HB": 13}, 531, 8.265578038319173, 0, 19, 61, 82,
    ),
    "resilient-truncated": (
        {"ACK": 124, "DATA": 142, "HB": 10}, 313, 3.2833893641301373, 0, 19, 59, 83,
    ),
    "lid-retx-exponential": (
        {"PROP": 170, "REJ": 95}, 367, 177.9713280023812, 103, 22, 67, 95,
    ),
    "lid-retx-none": ({"PROP": 141, "REJ": 101}, 317, 24.0, 72, 22, 69, 101),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_message_statistics_are_pinned(name):
    ps = random_ps(24, 0.3, 2, seed=11, ensure_edges=True)
    wt = satisfaction_weights(ps)
    engine, kwargs = RUNS[name]
    res = engine(wt, list(ps.quotas), **kwargs())
    m = res.metrics
    assert (
        dict(m.sent_by_kind),
        m.events,
        float(m.end_time),
        m.retransmissions,
        len(res.matching.edges()),
        sum(node.props_sent for node in res.nodes),
        sum(node.rejs_sent for node in res.nodes),
    ) == EXPECTED[name]
