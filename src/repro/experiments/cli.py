"""Command-line interface: run scenarios and experiments without code.

Entry point (installed via ``python -m repro``):

- ``python -m repro scenario file_sharing --n 80``  — build a scenario,
  run LID, print matching statistics;
- ``python -m repro compare geo_latency --n 40``    — satisfaction
  comparison of LID vs baselines vs OPT on one scenario;
- ``python -m repro campaign [--smoke]``            — seeded fault
  campaign (loss × crash × partition × Byzantine); ``--smoke`` is the
  chaos-smoke CI preset and exits non-zero on any invariant violation;
- ``python -m repro grid run|status|report``        — declarative
  parameter grids (engine × family × n × b × churn × fault × seed)
  with resumable parallel execution and aggregation; ``grid run
  --smoke`` is the grid-smoke CI merge gate;
- ``python -m repro conformance [--smoke]``         — cross-backend
  differential sweep + oracle battery + mutation smoke; ``--smoke`` is
  the conformance-smoke CI preset and exits non-zero iff a divergence /
  oracle violation is found or a planted bug goes uncaught;
  ``--replay FILE`` re-runs a minimised repro file deterministically;
- ``python -m repro discover --n 60``               — gossip discovery →
  ranking → LID, end to end;
- ``python -m repro churn --n 50 --events 20``      — a churn session
  with exact incremental repair;
- ``python -m repro serve --n 100 --events 200``    — the long-lived
  self-healing matching service: workload replay with budgeted
  incremental repair, crash-consistent checkpoints, runtime invariant
  guards and sampled differential conformance checks; ``--smoke`` is
  the service-smoke CI gate (kill-and-resume bit-identity + zero
  invariant violations, non-zero exit otherwise);
- ``python -m repro list``                          — the experiment
  inventory (ids, claims, bench files).
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

import numpy as np

from repro.baselines import (
    best_response_dynamics,
    max_satisfaction_bmatching_milp,
    random_bmatching,
)
from repro.core import solve_lid
from repro.experiments.instances import FAMILIES
from repro.experiments.reporting import print_table
from repro.overlay import SCENARIOS, DynamicOverlay, build_scenario
from repro.utils.rng import spawn_rng

__all__ = ["main", "build_parser"]


def _cmd_scenario(args) -> int:
    sc = build_scenario(args.name, args.n, seed=args.seed)
    result, _ = solve_lid(sc.ps, backend=args.backend,
                          max_rounds=args.max_rounds)
    m = result.matching
    v = m.satisfaction_vector(sc.ps)
    print(f"scenario={sc.name} n={sc.ps.n} m={sc.ps.m} b_max={sc.ps.b_max}")
    print(f"matched edges: {m.size()}")
    print(f"total satisfaction: {v.sum():.3f}  mean {v.mean():.3f}"
          f"  median {np.median(v):.3f}  min {v.min():.3f}")
    print(f"messages: {result.prop_messages} PROP + {result.rej_messages} REJ"
          f" in {result.rounds:.0f} rounds")
    if args.max_rounds is not None:
        t = result.truncation
        print(f"truncation: budget {t.max_rounds}, executed {t.rounds} waves,"
              f" converged={t.converged}, released locks {t.released_locks}")
        print(f"almost-stable: {t.blocking_pairs} blocking pairs"
              f" ({t.weighted_blocking_pairs} weighted),"
              f" satisfaction ratio {t.satisfaction_ratio:.4f} of converged")
    return 0


def _cmd_compare(args) -> int:
    sc = build_scenario(args.name, args.n, seed=args.seed)
    ps = sc.ps
    rows = []

    def add(label, matching):
        v = matching.satisfaction_vector(ps)
        rows.append(
            {"algorithm": label, "total": float(v.sum()),
             "mean": float(v.mean()), "min": float(v.min())}
        )

    lid, _ = solve_lid(ps)
    add("LID", lid.matching)
    from repro.core.backend import get_backend

    add(f"LIC[{args.backend}]", get_backend(args.backend).solve(ps))
    add("random", random_bmatching(ps, spawn_rng(args.seed, "cli-random")))
    br = best_response_dynamics(ps, max_steps=4000)
    add("best-response" + ("" if br.converged else "*"), br.matching)
    if args.exact:
        add("OPT", max_satisfaction_bmatching_milp(ps))
    print_table(rows, title=f"satisfaction comparison — {sc.name}, n={ps.n}"
                            " (* = oscillating snapshot)")
    return 0


def _cmd_list(args) -> int:
    from repro.experiments.registry import EXPERIMENTS

    rows = [
        {"id": e.id, "claim": e.claim, "anchor": e.anchor, "bench": e.bench}
        for e in EXPERIMENTS
    ]
    print_table(rows, title="experiment inventory (full runs: pytest benchmarks/)")
    return 0


def _grid_spec_of(args):
    """Resolve --spec FILE / --profile NAME / --smoke to a GridSpec."""
    from repro.experiments.gridspec import PROFILES, GridSpec

    if getattr(args, "spec", None):
        return GridSpec.from_toml(args.spec)
    profile = args.profile or ("smoke" if args.smoke else None)
    if profile is None:
        raise SystemExit(
            "grid: select a sweep with --profile NAME, --spec FILE or --smoke"
        )
    return PROFILES[profile]


def _grid_store_of(args, spec):
    from pathlib import Path

    from repro.experiments.grid import GridStore

    if args.store:
        return GridStore(args.store)
    # default store path embeds the spec hash: an edited spec lands in a
    # fresh store instead of tripping the stale-cell check
    return GridStore(Path(".gridstore") / f"{spec.name}-{spec.spec_hash()}")


def _print_grid_summary(spec, records) -> None:
    from repro.experiments.aggregate import summarise

    rows = summarise(records)
    columns: list[str] = []
    for r in rows:
        for c in r:
            if c not in columns:
                columns.append(c)
    print_table(rows, columns,
                title=f"grid {spec.name} — {len(records)} cells,"
                      f" spec {spec.spec_hash()}")


def _cmd_grid(args) -> int:
    from repro.experiments.aggregate import (
        GridIncompleteError,
        grid_status,
        write_report,
    )
    from repro.experiments.grid import StaleStoreError, run_grid

    spec = _grid_spec_of(args)
    store = _grid_store_of(args, spec)
    try:
        if args.grid_command == "status":
            st = grid_status(spec, store)
            print(f"grid {st['name']} (spec {st['hash']}):"
                  f" {st['done']}/{st['total']} cells complete")
            for cell_id in st["missing"][:10]:
                print(f"  missing {cell_id}")
            if len(st["missing"]) > 10:
                print(f"  ... and {len(st['missing']) - 10} more")
            return 0

        if args.grid_command == "report":
            paths = write_report(spec, store, out_dir=args.out,
                                 allow_partial=args.partial)
            from repro.experiments.aggregate import collect_records

            records = collect_records(spec, store, allow_partial=True)
            _print_grid_summary(spec, records)
            for kind in ("report", "summary", "cells"):
                print(f"{kind}: {paths[kind]}")
            return 0

        # run
        total = len(spec.cells())
        done = [0]

        def progress(cell, record):
            done[0] += 1
            status = "ok" if record["ok"] else "FAIL"
            print(f"[{done[0]}/{total}] {cell.cell_id}: {status}")

        result = run_grid(spec, store=store, workers=args.workers,
                          progress=progress, telemetry=args.telemetry,
                          cell_timeout=args.cell_timeout)
        _print_grid_summary(spec, result.records)
        print(f"store: {store.root}  ({result.executed} executed,"
              f" {result.reused} reused)")
        if args.telemetry:
            print(f"telemetry: {store.telemetry_dir}"
                  f"  ({len(store.telemetry_ids())} cell sessions)")
        if not result.ok:
            for rec in result.failures:
                print(f"FAILED cell {rec['engine']}/{rec['family']}"
                      f"/n={rec['n']}/b={rec['b']}/churn={rec['churn']}"
                      f"/{rec['fault']}/seed={rec['seed']}")
            return 1
        print(f"all {total} cells ok")
        return 0
    except (StaleStoreError, GridIncompleteError) as exc:
        print(f"grid: {exc}")
        return 1


def _cmd_telemetry(args) -> int:
    from repro.telemetry.report import load_store_telemetry, write_telemetry_report

    spec = _grid_spec_of(args)
    store = _grid_store_of(args, spec)
    if args.telemetry_command == "report":
        cells = load_store_telemetry(store.root)
        if not cells:
            print(f"telemetry: no sessions under {store.telemetry_dir}"
                  " (run `grid run --telemetry` first)")
            return 1
        paths = write_telemetry_report(store.root, out_dir=args.out,
                                       title=spec.name, full=args.full)
        print(f"telemetry: {len(cells)} cell sessions")
        for kind in ("report", "summary"):
            print(f"{kind}: {paths[kind]}")
        if args.out is not None:
            for kind in ("out_report", "out_summary"):
                print(f"{kind}: {paths[kind]}")
        return 0
    raise AssertionError(args.telemetry_command)


def _cmd_campaign(args) -> int:
    from repro.experiments.campaign import CampaignConfig, run_campaign

    if args.smoke:
        # the chaos-smoke CI gate: one large adversarial sweep — loss up
        # to 30%, 5% crashes, one partition/heal cycle, 5% Byzantine
        config = CampaignConfig(
            n=args.n or 500,
            loss_rates=(0.05, 0.3),
            crash_fracs=(0.05,),
            partition=(True,),
            byzantine_fracs=(0.0, 0.05),
            seeds=tuple(range(args.seeds)),
        )
    else:
        config = CampaignConfig(
            n=args.n or 60,
            seeds=tuple(range(args.seeds)),
        )
    res = run_campaign(config, workers=args.workers)
    print_table(
        res.rows(),
        title=f"fault campaign (n={config.n}, {len(res.cells)} cells)",
    )
    print(f"worst degradation {res.worst_degradation():.3f}"
          f" (live-honest satisfaction vs fault-free matching)")
    if not res.ok:
        for cell in res.failures:
            detail = "; ".join(cell.violations[:3]) or (
                "did not terminate" if not cell.terminated
                else f"{cell.blocking_edges} blocking edges"
            )
            print(f"FAILED cell [{cell.label()}]: {detail}")
        return 1
    print("all cells terminated with zero invariant violations")
    return 0


def _cmd_conformance(args) -> int:
    from repro.testing import (
        conformance_sweep,
        load_repro,
        mutation_smoke,
        replay_repro,
    )
    from repro.testing.conformance import smoke_specs

    if args.replay:
        repro = load_repro(args.replay)
        reproduces, report = replay_repro(repro)
        print(f"repro: {repro.description or '(no description)'}")
        print(f"instance: n={repro.instance.n} m={repro.instance.m}"
              f" seed={repro.seed}"
              + (f" mutation={repro.mutation}" if repro.mutation else ""))
        print(f"recorded kinds: {list(repro.divergence_kinds)}")
        kinds = sorted({d.kind for d in report.divergences})
        print(f"replayed kinds: {kinds}")
        for d in report.divergences:
            print(f"  [{d.kind}] {d.left} vs {d.right}: {d.detail}")
        if not reproduces:
            print("REPLAY MISMATCH: recorded divergences did not reproduce")
            return 1
        print("replay reproduces the recorded outcome exactly")
        return 0

    max_n = args.max_n or (300 if args.smoke else 120)
    seeds = tuple(range(args.seeds))
    if args.truncation:
        # the k-differential battery behind the truncation-smoke CI job:
        # every truncated pipeline (each engine at k in {1, 3, inf}) on
        # top of the defaults, so per-k matchings are diffed across
        # engines and the kinf runs are pinned against converged outputs
        from repro.testing.conformance import (
            truncation_pipelines,
            truncation_smoke_specs,
        )

        sweep = conformance_sweep(truncation_smoke_specs(seeds=seeds),
                                  pipelines=truncation_pipelines())
    else:
        sweep = conformance_sweep(smoke_specs(max_n=max_n, seeds=seeds))
    print_table(
        [c.row() for c in sweep.cells],
        title=f"conformance sweep — {len(sweep.cells)} cells,"
              f" {len(sweep.cells[0].report.runs)} pipelines each",
    )
    if args.truncation:
        # the battery plants only the round-cap mutation: the other
        # planted bugs are the default sweep's job
        smoke = mutation_smoke(mutations=("lid-truncation-off-by-one",),
                               out_dir=args.out)
    else:
        smoke = mutation_smoke(out_dir=args.out)
    rows = [
        {"mutation": o.mutation,
         "caught": "yes" if o.caught else "MISSED",
         "minimal": f"n={o.repro.instance.n} m={o.repro.instance.m}"
         if o.repro else "-",
         "kinds": ",".join(o.divergence_kinds) or "-"}
        for o in smoke.outcomes
    ]
    print_table(rows,
                title="mutation smoke — every planted bug must be caught")
    if args.out:
        print(f"minimised repro files written to {args.out}")
    ok = sweep.ok and smoke.ok
    if not sweep.ok:
        for cell in sweep.failures:
            print(f"DIVERGENCE in cell [{cell.spec.label()}]:")
            for d in cell.report.divergences[:5]:
                print(f"  [{d.kind}] {d.left} vs {d.right}: {d.detail}")
    if not smoke.ok:
        print(f"UNCAUGHT planted bugs: {', '.join(smoke.missed)}")
    if not ok:
        return 1
    print(f"all {len(sweep.cells)} cells agree across backends"
          + ("" if smoke is None
             else f"; all {len(smoke.outcomes)} planted bugs caught"))
    return 0


def _cmd_discover(args) -> int:
    from repro.overlay import build_preference_system, discover_knowledge_graph
    from repro.overlay.metrics import PrivateTasteMetric
    from repro.overlay.peer import generate_peers

    res = discover_knowledge_graph(args.n, rounds=args.rounds, seed=args.seed)
    peers = generate_peers(args.n, spawn_rng(args.seed, "cli-discover"))
    ps = build_preference_system(res.topology, peers, PrivateTasteMetric(seed=args.seed))
    result, _ = solve_lid(ps)
    print(f"discovery: {res.messages} gossip msgs,"
          f" mean knowledge {res.mean_knowledge:.1f} peers")
    print(f"matching: {result.matching.size()} connections,"
          f" satisfaction {result.matching.total_satisfaction(ps):.2f},"
          f" {result.metrics.total_sent} protocol msgs")
    return 0


def _cmd_churn(args) -> int:
    from repro.experiments.grid import churn_session

    sc = build_scenario("geo_latency", args.n, seed=args.seed)
    overlay = DynamicOverlay(sc.topology, sc.peers, sc.metric, backend=args.backend)
    rng = spawn_rng(args.seed, "cli-churn")
    changes, reused, recomputed = churn_session(overlay, rng, args.events,
                                                args.n, quota=3)
    print(f"{args.events} churn events -> {overlay.n} peers alive,"
          f" {changes} connection changes,"
          f" satisfaction {overlay.total_satisfaction():.2f}")
    if args.backend == "fast" and reused + recomputed:
        print(f"weight cache: {reused} reused / {recomputed} recomputed"
              f" ({100.0 * reused / (reused + recomputed):.0f}% reuse)")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, kill_and_resume_check, run_service

    smoke = args.smoke
    config = ServiceConfig(
        n=args.n if args.n is not None else (500 if smoke else 100),
        quota=args.quota,
        family=args.family,
        seed=args.seed,
        events=args.events if args.events is not None else 200,
        workload=args.workload,
        repair_budget=args.budget,
        on_budget=args.on_budget,
        checkpoint_every=args.checkpoint_every,
        differential_every=args.differential_every,
        warmstart_rounds=args.warmstart_rounds,
    )

    if smoke:
        # the service-smoke CI gate: run the trace uninterrupted, run it
        # again killed mid-flight and resumed from the last checkpoint,
        # and require (a) byte-identical deterministic reports, (b) all
        # differential conformance checks pass, (c) zero invariant
        # violations end to end
        out = kill_and_resume_check(config)
        rep = out["report"]
        print(f"service-smoke: n={config.n} events={config.events}"
              f" workload={config.workload} trace={rep['trace_fingerprint']}")
        print(f"kill-and-resume: killed at event {out['kill_after']},"
              f" identical={out['identical']}"
              + (f", mismatched fields: {out['mismatches']}"
                 if out["mismatches"] else ""))
        print(f"differential checks ok: {out['differential_ok']};"
              f" invariant violations: {out['guard_violations']};"
              f" final mode: {rep['final_mode']}")
        ok = (out["identical"] and out["differential_ok"]
              and out["guard_violations"] == 0)
        print("service-smoke PASS" if ok else "service-smoke FAIL")
        return 0 if ok else 1

    result = run_service(
        config,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
        kill_after=args.kill_after,
    )
    r = result.report
    print(f"service: {config.workload} x{r['trace_events']} events on"
          f" n={config.n} {config.family} (trace {r['trace_fingerprint']})")
    print(f"applied through event {r['applied_through']}"
          + (" (killed)" if not r["completed"] else "")
          + f"; {r['final_n']} peers alive, mode {r['final_mode']}")
    print(f"churn: {r['joins']} joins / {r['leaves']} leaves /"
          f" {r['crashes']} crashes / {r['updates']} updates"
          f" ({r['skipped']} skipped)")
    print(f"repair: {r['resolutions']} resolutions,"
          f" {r['truncated_repairs']} truncated,"
          f" {r['full_resolves']} full re-solves,"
          f" cache {r['weights_reused']} reused /"
          f" {r['weights_recomputed']} recomputed")
    print(f"rates: {r['events_per_s']:.1f} events/s,"
          f" mean repair {r['mean_repair_ms']:.2f} ms"
          + (f", incremental vs full x{r['speedup_vs_full_x']:.1f}"
             if r["speedup_vs_full_x"] else ""))
    if r["completed"]:
        print(f"conformance: blocking edges {r['blocking_edges']},"
              f" matches fresh solve: {r['matches_fresh_solve']},"
              f" differential ok: {r['differential_ok']};"
              f" satisfaction {r['sat_total']:.2f}")
    print(f"guards: {r['guard_violations']} violations,"
          f" {r['degraded_entries']} degraded entries")
    if args.checkpoint:
        print(f"checkpoints: {args.checkpoint}")
    return 0 if (r["differential_ok"] and r["guard_violations"] == 0) else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Overlays with preferences (IPDPS 2010) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="run LID on a named scenario")
    p.add_argument("name", choices=sorted(SCENARIOS))
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=["reference", "fast"],
                   default="reference",
                   help="LID execution path: event-by-event simulator or the"
                        " round-batched fast engine (identical matchings)")
    p.add_argument("--max-rounds", type=int, default=None, metavar="K",
                   help="truncate the protocol after K delivery waves and"
                        " serve the feasible almost-stable partial matching"
                        " (identical across backends; default: run to"
                        " convergence)")
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("compare", help="compare algorithms on a scenario")
    p.add_argument("name", choices=sorted(SCENARIOS))
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="also solve the MILP optimum")
    p.add_argument("--backend", choices=["reference", "fast"],
                   default="reference",
                   help="execution backend for the LIC pipeline row")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("list", help="list the experiment inventory")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser(
        "campaign",
        help="seeded fault campaign: loss x crash x partition x Byzantine",
    )
    p.add_argument("--n", type=int, default=None,
                   help="nodes per cell (default 60; 500 with --smoke)")
    p.add_argument("--seeds", type=int, default=2,
                   help="replications per fault configuration")
    p.add_argument("--smoke", action="store_true",
                   help="the chaos-smoke CI preset: one large adversarial"
                        " sweep, non-zero exit on any violation")
    p.add_argument("--workers", type=int, default=None,
                   help="evaluate fault cells in a process pool (the"
                        " campaign runs through the grid engine)")
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser(
        "grid",
        help="declarative parameter grids: resumable parallel sweeps"
             " with aggregation (engine x family x n x b x churn x fault)",
    )
    gsub = p.add_subparsers(dest="grid_command", required=True)
    from repro.experiments.gridspec import PROFILES

    def _grid_common(gp, with_run_flags=False):
        gp.add_argument("--profile", choices=sorted(PROFILES), default=None,
                        help="a built-in sweep profile")
        gp.add_argument("--spec", default=None, metavar="FILE",
                        help="a TOML grid-spec file (see docs/experiments.md)")
        gp.add_argument("--smoke", action="store_true",
                        help="shorthand for --profile smoke — the grid-smoke"
                             " CI merge gate; non-zero exit on any failing cell")
        gp.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory (default:"
                             " .gridstore/<name>-<spec-hash>)")
        if with_run_flags:
            gp.add_argument("--workers", type=int, default=None,
                            help="process-pool width for cell execution")
            gp.add_argument("--telemetry", action="store_true",
                            help="instrument executed cells (spans, convergence"
                                 " probes, resource profile) and persist one"
                                 " telemetry/<cell_id>.jsonl per cell")
            gp.add_argument("--cell-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="hung-cell watchdog: kill a cell exceeding"
                                 " this wall-clock budget and retry it once;"
                                 " a second timeout records the cell as"
                                 " ok=false/error=timeout")
        gp.set_defaults(fn=_cmd_grid)

    _grid_common(gsub.add_parser(
        "run", help="execute every missing cell, reusing completed ones"),
        with_run_flags=True)
    _grid_common(gsub.add_parser(
        "status", help="completed vs missing cells of a store"))
    gp = gsub.add_parser(
        "report", help="aggregate a store into report.md / summary.csv")
    _grid_common(gp)
    gp.add_argument("--out", default=None, metavar="DIR",
                    help="also write grid_<name>_summary.csv /"
                         " grid_<name>_report.md into DIR (e.g."
                         " benchmarks/results)")
    gp.add_argument("--partial", action="store_true",
                    help="report over an incomplete store")

    p = sub.add_parser(
        "telemetry",
        help="render a grid store's telemetry sessions (spans, probes,"
             " resource profiles) into markdown/CSV",
    )
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    tp = tsub.add_parser(
        "report",
        help="telemetry_report.md / telemetry_summary.csv from a store's"
             " telemetry/*.jsonl (deterministic fields only)")
    tp.add_argument("--profile", choices=sorted(PROFILES), default=None,
                    help="a built-in sweep profile")
    tp.add_argument("--spec", default=None, metavar="FILE",
                    help="a TOML grid-spec file (see docs/experiments.md)")
    tp.add_argument("--smoke", action="store_true",
                    help="shorthand for --profile smoke")
    tp.add_argument("--store", default=None, metavar="DIR",
                    help="result-store directory (default:"
                         " .gridstore/<name>-<spec-hash>)")
    tp.add_argument("--out", default=None, metavar="DIR",
                    help="also copy the report/CSV into DIR under"
                         " telemetry_<name>_… names")
    tp.add_argument("--full", action="store_true",
                    help="append the machine-dependent appendix (span"
                         " timings, resource profiles) to the report")
    tp.set_defaults(fn=_cmd_telemetry)

    p = sub.add_parser(
        "conformance",
        help="differential sweep + oracle battery + mutation smoke",
    )
    p.add_argument("--smoke", action="store_true",
                   help="the conformance-smoke CI preset: sweep up to"
                        " n=300, plant every mutation, non-zero exit on"
                        " any divergence or uncaught bug")
    p.add_argument("--max-n", type=int, default=None,
                   help="largest sweep instance (default 120; 300 with"
                        " --smoke)")
    p.add_argument("--seeds", type=int, default=1,
                   help="replications per sweep cell")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write minimised repro files for caught"
                        " mutations into DIR")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="re-run a conformance_repro JSON file and check"
                        " the recorded divergences reproduce")
    p.add_argument("--truncation", action="store_true",
                   help="the truncation-smoke CI battery: run every"
                        " truncated pipeline (each engine at k in"
                        " {1, 3, inf}) on the k-differential grid, diff"
                        " matchings/blocking pairs per k across engines,"
                        " and plant the round-cap mutation")
    p.set_defaults(fn=_cmd_conformance)

    p = sub.add_parser("discover", help="gossip discovery -> ranking -> LID pipeline")
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_discover)

    p = sub.add_parser(
        "serve",
        help="long-lived matching service: churn workload replay with"
             " budgeted incremental repair, crash-consistent checkpoints"
             " and runtime invariant guards",
    )
    from repro.experiments.gridspec import SERVICE_WORKLOADS

    p.add_argument("--n", type=int, default=None,
                   help="initial overlay size (default 100; 500 with --smoke)")
    p.add_argument("--events", type=int, default=None,
                   help="workload-trace length (default 200)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", choices=sorted(SERVICE_WORKLOADS),
                   default="poisson",
                   help="churn driver: memoryless mix, flash crowd,"
                        " diurnal cycle, or adversarial join/leave storms")
    p.add_argument("--quota", type=int, default=3,
                   help="per-peer connection quota b_i")
    p.add_argument("--family", choices=sorted(FAMILIES), default="geo",
                   help="initial-topology family")
    p.add_argument("--budget", type=int, default=None,
                   help="max blocking-edge resolutions per incremental"
                        " repair (default: unbounded, exact LIC fixpoint)")
    p.add_argument("--on-budget", choices=["resolve", "defer"],
                   default="resolve",
                   help="when a repair truncates: full re-solve (exact)"
                        " or serve the feasible truncated matching"
                        " (almost-stable)")
    p.add_argument("--warmstart-rounds", type=int, default=None, metavar="K",
                   help="warm-start every full re-solve from a K-round"
                        " truncated LID run; the served matching is"
                        " identical to a cold solve, only cheaper")
    p.add_argument("--differential-every", type=int, default=50,
                   help="conformance-check the served state against a"
                        " from-scratch solve every K events (0 = only at"
                        " the end)")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="write crash-consistent versioned snapshots into"
                        " DIR (atomic, torn files ignored on restore)")
    p.add_argument("--checkpoint-every", type=int, default=25,
                   help="snapshot cadence in events")
    p.add_argument("--resume", action="store_true",
                   help="restore from the newest intact checkpoint in"
                        " --checkpoint DIR and replay the remaining events")
    p.add_argument("--kill-after", type=int, default=None, metavar="K",
                   help="stop abruptly after K events with no final"
                        " snapshot (simulates a crash; resume with"
                        " --resume)")
    p.add_argument("--smoke", action="store_true",
                   help="the service-smoke CI gate: kill-and-resume"
                        " bit-identity + zero invariant violations on a"
                        " n=500 trace; non-zero exit on failure")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("churn", help="churn session with incremental repair")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--events", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=["reference", "fast"],
                   default="reference",
                   help="reference rebuilds weights per event; fast uses"
                        " the incremental WeightCache")
    p.set_defaults(fn=_cmd_churn)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)
