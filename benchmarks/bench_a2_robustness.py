"""A2 — robustness under loss and Byzantine peers (future work §7).

The paper's conclusion asks how the algorithm copes with disruptions.
Two sub-experiments:

1. *Message loss*: LID as published assumes reliable channels; with
   i.i.d. loss it stalls.  The timeout-retransmission wrapper restores
   termination, at a measured message overhead, and — because the
   underlying greedy fixpoint is unique — recovers the *exact* loss-free
   matching.  Expected shape: overhead grows with the loss rate;
   matching equality 100%.

2. *Byzantine reject-all peers*: disruptive nodes that reject every
   proposal.  Honest nodes still terminate and keep a feasible certified
   matching; total satisfaction degrades gracefully with the number of
   disruptors (they effectively remove themselves from the overlay).

3. *Fault campaign*: the resilient runtime (reliable channels +
   heartbeat failure detector) swept over the full fault matrix —
   loss × crashes × a partition/heal cycle × Byzantine peers — as the
   grid's ``faults`` profile.  Every cell must terminate with zero
   invariant violations, a valid live-honest matching and no weighted
   blocking edge on the clean subgraph; degradation is reported per
   cell.
"""


from repro.core.lic import lic_matching
from repro.core.lid import LidNode, run_lid
from repro.core.weights import satisfaction_weights
from repro.distsim import BernoulliLoss, Network, Simulator
from repro.distsim.failures import make_byzantine
from repro.experiments import (
    PROFILES,
    FaultSpec,
    GridSpec,
    random_preference_instance,
    run_grid,
    run_grid_cell,
)


def test_a2_loss_retransmission(report, benchmark):
    ps = random_preference_instance(50, 0.2, 3, seed=3)
    wt = satisfaction_weights(ps)
    baseline = run_lid(wt, ps.quotas)
    reference = baseline.matching.edge_set()

    rows = []
    for loss in (0.0, 0.05, 0.15, 0.30):
        res = run_lid(
            wt,
            ps.quotas,
            drop_filter=BernoulliLoss(loss) if loss else None,
            retransmit_timeout=5.0,
            seed=17,
        )
        rows.append(
            {
                "loss_rate": loss,
                "messages": res.metrics.total_sent,
                "dropped": res.metrics.dropped,
                "overhead_x": res.metrics.total_sent / baseline.metrics.total_sent,
                "virtual_time": res.metrics.end_time,
                "terminated": all(n.finished for n in res.nodes),
                "matching_equal": res.matching.edge_set() == reference,
            }
        )
    report(
        rows,
        ["loss_rate", "messages", "dropped", "overhead_x", "virtual_time",
         "terminated", "matching_equal"],
        title="A2a  LID + retransmission under message loss",
        csv_name="a2_loss.csv",
    )
    for r in rows:
        assert r["terminated"] and r["matching_equal"]
    overheads = [r["overhead_x"] for r in rows]
    assert overheads == sorted(overheads)  # monotone in loss rate

    benchmark(
        lambda: run_lid(
            wt, ps.quotas, drop_filter=BernoulliLoss(0.1),
            retransmit_timeout=5.0, seed=17,
        )
    )


def test_a2_byzantine_rejectors(report, benchmark):
    ps = random_preference_instance(40, 0.25, 3, seed=5)
    wt = satisfaction_weights(ps)
    honest_full = lic_matching(wt, ps.quotas)
    base_sat = honest_full.total_satisfaction(ps)

    rows = []
    for n_byz in (0, 2, 5, 10):
        byz = set(range(n_byz))  # ids 0..n_byz-1 turn disruptive
        nodes = [LidNode(wt.weight_list(i), ps.quota(i)) for i in range(ps.n)]
        for b in byz:
            make_byzantine(nodes[b], "reject_all")
        sim = Simulator(Network(ps.n, links=wt.edges(), seed=1), nodes)
        sim.run()
        honest_ok = all(
            nodes[i].finished for i in range(ps.n) if i not in byz
        )
        # matching among honest nodes
        from repro.core.matching import Matching

        m = Matching(ps.n)
        for i in range(ps.n):
            if i in byz:
                continue
            for j in nodes[i].locked:
                if j not in byz and i < j and i in nodes[j].locked:
                    m.add(i, j)
        m.validate(ps)
        rows.append(
            {
                "byzantine": n_byz,
                "honest_terminated": honest_ok,
                "matched_edges": m.size(),
                "satisfaction": m.total_satisfaction(ps),
                "vs_clean": m.total_satisfaction(ps) / base_sat,
            }
        )
    report(
        rows,
        ["byzantine", "honest_terminated", "matched_edges", "satisfaction",
         "vs_clean"],
        title="A2b  reject-all Byzantine peers: graceful degradation",
        csv_name="a2_byzantine.csv",
    )
    assert all(r["honest_terminated"] for r in rows)
    sats = [r["satisfaction"] for r in rows]
    assert sats[0] >= sats[-1]  # degradation, not collapse
    assert rows[-1]["vs_clean"] > 0.5  # 25% disruptors cost < half the welfare

    def _byzantine_round():
        nodes = [LidNode(wt.weight_list(i), ps.quota(i)) for i in range(ps.n)]
        for b in range(5):
            make_byzantine(nodes[b], "reject_all")
        Simulator(Network(ps.n, links=wt.edges(), seed=1), nodes).run()

    benchmark(_byzantine_round)


def _cell_label(fault: FaultSpec, seed: int) -> str:
    parts = [f"loss={fault.loss:g}"]
    if fault.crash:
        parts.append(f"crash={fault.crash:g}")
    if fault.partition:
        parts.append("partition")
    if fault.byzantine:
        parts.append(f"byz={fault.byzantine:g}")
    parts.append(f"seed={seed}")
    return " ".join(parts)


def test_a2_fault_campaign(report, benchmark):
    records = run_grid(PROFILES["faults"]).records
    faults = [FaultSpec.parse(r["fault"]) for r in records]
    labels = [_cell_label(f, r["seed"]) for f, r in zip(faults, records)]

    report(
        [
            {
                "cell": label,
                "ok": "yes" if r["ok"] else "NO",
                "live": r["live_honest"],
                "clean": r["clean"],
                "edges": r["matched_edges"],
                "degrade": f"{r['degradation']:.3f}",
                "retx": r["retransmissions"],
                "viol": len(r["violations"]),
            }
            for label, r in zip(labels, records)
        ],
        ["cell", "ok", "live", "clean", "edges", "degrade", "retx", "viol"],
        title="A2c  fault campaign: loss x crash x partition x Byzantine",
        csv_name="a2_campaign.csv",
    )
    for label, r in zip(labels, records):
        assert r["terminated"], f"cell [{label}] did not terminate"
        assert not r["violations"], (
            f"cell [{label}] violated invariants: {r['violations'][:3]}"
        )
        assert r["valid"], f"cell [{label}] produced an infeasible matching"
        assert r["blocking_edges"] == 0, (
            f"cell [{label}] left {r['blocking_edges']} weighted "
            "blocking edges on the clean subgraph"
        )
    # the fault-free-ish corner keeps nearly all welfare; the worst
    # corner (30% loss + crashes + partition + Byzantine) degrades but
    # never collapses
    assert min(r["degradation"] for r in records) > 0.4
    benign = [r["degradation"] for f, r in zip(faults, records)
              if not (f.crash or f.partition or f.byzantine)]
    assert min(benign) > 0.9

    single = GridSpec(
        name="a2-single", engines=("resilient",), sizes=(40,), quotas=(3,),
        density=0.15, faults=("loss=0.15+crash=0.05+partition+byz=0.1",),
    )
    benchmark(lambda: run_grid_cell(single, single.cells()[0]))
