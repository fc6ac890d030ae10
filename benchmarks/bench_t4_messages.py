"""T4 — Lemma 5 + §5: termination and message complexity of LID.

Regenerates the protocol-cost claim ("a small amount of local
communication"): message counts and asynchronous rounds as n and the
quota grow.  Expected shape:

- LID always terminates (Lemma 5) — every row completes;
- PROP ≤ 2m and REJ ≤ 2m (each node contacts each neighbour at most
  once per message type), so total messages grow linearly in m;
- rounds grow slowly (the proposal wave is locally bounded), far below n.

The (n × b × seed) grid is a declarative
:class:`~repro.experiments.gridspec.GridSpec` executed by
:func:`~repro.experiments.grid.run_grid`; this file only derives the T4
columns from the cell records and aggregates them over seeds.

Backend-aware (``--repro-backend`` / ``REPRO_BENCH_BACKEND``): the grid
runs on the event-by-event simulator or the round-batched fast
engine — the message statistics are identical by construction, and the
smallest grid point is cross-checked between both engines every run.
"""


from repro.core.lid import run_lid
from repro.core.weights import satisfaction_weights
from repro.experiments import (
    GridSpec,
    aggregate,
    random_preference_instance,
    run_grid,
    run_grid_cell,
)


def t4_spec(backend: str) -> GridSpec:
    """The T4 grid: LID on ER instances of expected degree 12."""
    return GridSpec(
        name=f"t4-{backend}",
        engines=(f"lid-{backend}",),
        sizes=(50, 100, 200, 400),
        quotas=(2, 4),
        seeds=(0, 1),
        degree=12.0,
    )


def _t4_fields(record: dict) -> dict:
    """The T4 message statistics of one LID grid record."""
    m = record["m"]
    prop = record.get("sent_PROP", 0)
    rej = record.get("sent_REJ", 0)
    return {
        "m": m,
        "prop": prop,
        "rej": rej,
        "total": record["messages"],
        "rounds": record["rounds"],
        "msgs_per_edge": record["msgs_per_edge"],
        "prop_bound_ok": prop <= 2 * m,
        "rej_bound_ok": rej <= 2 * m,
        # both LID engines raise ProtocolError on any unfinished node
        # and run_grid passes it on, so a completed cell is the
        # termination witness
        "terminated": True,
    }


def test_t4_message_complexity_table(report, benchmark, bench_backend):
    result = run_grid(t4_spec(bench_backend))
    assert result.ok, [r for r in result.failures]
    rows = [
        {"n": r["n"], "b": r["b"], "backend": bench_backend, **_t4_fields(r)}
        for r in result.records
    ]
    agg = aggregate(
        rows,
        ["n", "b", "backend"],
        ["m", "prop", "rej", "total", "rounds", "msgs_per_edge",
         "prop_bound_ok", "rej_bound_ok", "terminated"],
    )
    report(
        agg,
        ["n", "b", "backend", "m", "prop", "rej", "total", "msgs_per_edge",
         "rounds", "prop_bound_ok", "rej_bound_ok", "terminated"],
        title="T4  LID message complexity (PROP ≤ 2m, REJ ≤ 2m, linear in m)",
        csv_name="t4_messages.csv",
    )
    for r in agg:
        assert r["terminated"] == 1.0
        assert r["prop_bound_ok"] == 1.0 and r["rej_bound_ok"] == 1.0
        assert r["msgs_per_edge"] <= 4.0

    # cross-check subsample: the two engines must report identical
    # message statistics on the smallest grid point (the first cell)
    ref, fast = (
        _t4_fields(run_grid_cell(spec, spec.cells()[0]))
        for spec in (t4_spec("reference"), t4_spec("fast"))
    )
    assert fast == ref

    ps = random_preference_instance(200, 12.0 / 200, 3, seed=9)
    wt = satisfaction_weights(ps)
    benchmark(lambda: run_lid(wt, ps.quotas))
