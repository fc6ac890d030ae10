"""T3 — Lemmas 4 & 6: LID selects exactly the LIC edge set, always.

Regenerates the equivalence the approximation proof rests on, across
adversarial schedules: unit-latency FIFO, uniform-latency FIFO,
exponential-latency non-FIFO — each must lock the identical edge set
that the centralised LIC selects.  Expected shape: 100% equality on
every instance/schedule pair (the paper proves it, we measure it).
"""


from repro.core.lic import lic_matching
from repro.core.lid import run_lid
from repro.distsim import ExponentialLatency, UniformLatency
from repro.experiments import FAMILIES, family_instance
from repro.core.weights import satisfaction_weights

SCHEDULES = {
    "unit-fifo": dict(latency=None, fifo=True),
    "uniform-fifo": dict(latency=UniformLatency(0.2, 4.0), fifo=True),
    "exp-nonfifo": dict(latency=ExponentialLatency(1.5), fifo=False),
}


def _run(family: str, seed: int) -> dict:
    ps = family_instance(family, 40, 3, seed=seed)
    wt = satisfaction_weights(ps)
    reference = lic_matching(wt, ps.quotas).edge_set()
    out = {"edges": len(reference)}
    for name, cfg in SCHEDULES.items():
        res = run_lid(wt, ps.quotas, seed=seed, **cfg)
        out[name] = res.matching.edge_set() == reference
    return out


def test_t3_lid_equals_lic_table(report, benchmark):
    # the latency schedules are not a grid axis: a plain loop
    rows = [
        {"family": family, "seed": seed, **_run(family, seed)}
        for family in FAMILIES
        for seed in range(3)
    ]
    report(
        rows,
        ["family", "seed", "edges", *SCHEDULES],
        title="T3  LID edge set == LIC edge set under adversarial schedules",
        csv_name="t3_equivalence.csv",
    )
    for row in rows:
        for name in SCHEDULES:
            assert row[name] is True

    ps = family_instance("er", 40, 3, seed=0)
    wt = satisfaction_weights(ps)
    benchmark(lambda: run_lid(wt, ps.quotas))
