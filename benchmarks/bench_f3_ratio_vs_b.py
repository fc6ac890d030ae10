"""F3 — the approximation band as a function of b_max (Theorems 1 & 3).

Regenerates the bound curve: for uniform quotas b = 1..6, the measured
LID satisfaction ratio against the exact optimum, alongside the
guaranteed floor ¼(1+1/b) and the intermediate Theorem-1 factor
½(1+1/b).  Expected shape: the guarantee decreases from 0.5 towards
0.25 as b grows, while the *measured* ratio stays high (≈0.85+) —
i.e. the analysis is worst-case, and its slack grows with b.

The (b × seed) grid is a declarative
:class:`~repro.experiments.gridspec.GridSpec` with ``measure_ratio``
enabled — each cell solves the exact optimum and records the Theorem-3
fields; this file only aggregates the records (worst ratio over seeds).
"""


from repro.core.analysis import theorem1_bound, theorem3_bound
from repro.core.lid import solve_lid
from repro.experiments import (
    GridSpec,
    aggregate,
    random_preference_instance,
    run_grid,
)


def f3_spec() -> GridSpec:
    """The F3 grid: LID vs the exact optimum for uniform quotas 1..6."""
    return GridSpec(
        name="f3-ratio-vs-b",
        engines=("lid-reference",),
        sizes=(24,),
        quotas=(1, 2, 3, 4, 5, 6),
        seeds=(0, 1, 2),
        density=0.35,
        measure_ratio=True,
    )


def test_f3_ratio_vs_b_series(report, benchmark):
    result = run_grid(f3_spec())
    assert result.ok, [r for r in result.failures]
    agg = aggregate(result.records, ["b"], ["ratio", "bound_ok"],
                    reducers={"ratio": min})
    for r in agg:
        r["thm3_floor"] = theorem3_bound(r["b"])
        r["thm1_factor"] = theorem1_bound(r["b"])
        r["slack"] = r["ratio"] - r["thm3_floor"]
    report(
        agg,
        ["b", "count", "ratio", "thm3_floor", "thm1_factor", "slack", "bound_ok"],
        title="F3  measured satisfaction ratio vs the ¼(1+1/b) guarantee",
        csv_name="f3_ratio_vs_b.csv",
    )
    assert all(r["bound_ok"] == 1.0 for r in agg)
    floors = [r["thm3_floor"] for r in agg]
    assert floors == sorted(floors, reverse=True)  # floor decreases in b
    assert all(r["slack"] > 0.2 for r in agg)  # analysis is pessimistic

    ps = random_preference_instance(24, 0.35, 3, seed=0)
    benchmark(lambda: solve_lid(ps))
