"""End-to-end benchmark: static solve, protocol simulation, churn service.

Run from the repository root (``src`` is put on the path here).

One workload, in this process; the last line of standard output is the
JSON result, the line before it a ``detail`` record::

    python3 benchmarks/e2e/run.py --workload static-large --seed 0 \\
        --seconds 15 --trace 0 [--quick]

A run repeats identical *passes* — build the inputs, then the
workload's fixed list of operations — for ``--seconds``, and at least
``MIN_PASSES`` times.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` measures untraced first, then runs
one more pass with every layer wrapped in spans and reports the
per-layer metrics.

Every workload, each in a fresh child process, into a ledger::

    python3 benchmarks/e2e/run.py [--seed S] [--label L] [--quick] [--no-trace]

writes ``benchmarks/e2e/ledger/BENCH_<label>.json`` (fingerprint,
deterministic witnesses, every timing sample with median and quartiles,
and the traced pass's layer split).  ``--no-trace`` skips the traced
children.  Compare two ledgers with ``diff.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext, suppress
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"
LEDGER_DIR = BENCH_DIR / "ledger"
WORK_DIR = BENCH_DIR / ".work"

#: every pass builds the inputs once, so set-up is timed this often at
#: least and its median reported, and every operation has this many
#: timings to take the median of
MIN_PASSES = 3
#: seconds of ``_probe_s`` on the reference host (2-core x86_64 VM,
#: Python 3.11, quiet); every reported time is scaled to that speed
PROBE_REF_S = 0.007
#: a much slower commit stops after the pass that ends past this many
#: times --seconds, even short of MIN_PASSES, to stay within the
#: per-run time limit
TIME_CAP_FACTOR = 4
#: untraced children per workload in a ledger run
LEDGER_REPEATS = 5
#: a full measurement campaign makes 4 + 22 * workloads runs within this
CAMPAIGN_CAP_S = 3420.0
CHILD_TIMEOUT_S = 900.0
#: every end-to-end value a run measures, with its unit.  ``op_p90_ms``
#: is kept out of BENCHMARK.json: with 2 to 32 operations in a pass no
#: percentile above the median has ten of them beyond it.
E2E_UNITS = {
    "setup_s": "s",
    "op_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_kb": "KiB",
}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``statistics.quantiles`` inclusive)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _probe_s() -> float:
    """Seconds of one fixed pure-Python loop: the host's speed right now."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(40_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += i * i
    return perf_counter() - t0


def _timed(fn, span) -> tuple[object, float, float]:
    """``(result, seconds, seconds at the reference speed)`` of ``fn()``.

    On a shared host other tenants slow every program for spells of
    seconds to minutes, by up to 2x, which no number of repeats inside
    one run averages out.  The probe runs right before and right after
    the call, outside ``span``, and the call's time is scaled by
    ``PROBE_REF_S`` over the mean of the two probe times.  GC is
    collected first and disabled throughout.
    """
    gc.collect()
    gc.disable()
    try:
        before = _probe_s()
        with span:
            t0 = perf_counter()
            result = fn()
            seconds = perf_counter() - t0
        after = _probe_s()
    finally:
        gc.enable()
    return result, seconds, seconds * PROBE_REF_S * 2.0 / (before + after)


def _typical(passes: list[list[float]]) -> list[float]:
    """Each operation of a pass at its median over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


class _Run:
    """Set-up and operation timings, failures and work counts of passes.

    Times are at the reference speed; the ``raw_`` lists hold the same
    timings as the clock read them.
    """

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.raw_setup_s: list[float] = []
        #: operation seconds, one list per pass
        self.passes: list[list[float]] = []
        self.raw_passes: list[list[float]] = []
        self.failures: list[str] = []
        self.failed = 0
        self.counts: Counter = Counter()
        self.deterministic: dict | None = None

    @property
    def ops(self) -> int:
        return sum(len(p) for p in self.passes)


def _pass(wl, run: _Run, tracer=None) -> None:
    """Build the inputs, then run operations ``0 .. wl.ops-1`` and check them.

    The end-of-pass checks (``wl.finish``) run on the run's first pass
    and on the traced pass; every other pass must reproduce the first
    pass's deterministic witnesses,
    so it ends in the same checked state.
    """

    def root(kind: str, k: int):
        return tracer.root(kind, k) if tracer is not None else nullcontext()

    wl.reset()
    built, raw, scaled = _timed(wl.build, root("setup", len(run.passes)))
    run.setup_s.append(scaled)
    run.raw_setup_s.append(raw)
    wl.start(built)
    built = None
    samples, raw_samples = [], []
    for k in range(wl.ops):
        out, raw, scaled = _timed(lambda: wl.op(k), root("op", k))
        samples.append(scaled)
        raw_samples.append(raw)
        with root("check", k):
            bad = wl.check(k, out)
        run.counts.update(wl.counts(out))
        out = None  # release before the next operation allocates its own
        if bad:
            run.failed += 1
            run.failures.extend(bad)
    if run.deterministic is None or tracer is not None:
        with root("check", wl.ops):
            run.failures.extend(wl.finish())
    witnesses = wl.deterministic()
    if run.deterministic is None:
        run.deterministic = witnesses
    elif witnesses != run.deterministic:
        run.failures.append("a pass's deterministic witnesses differ from the first pass's")
    run.passes.append(samples)
    run.raw_passes.append(raw_samples)


def _measure(wl, seconds: float) -> _Run:
    """Passes until ``seconds`` have passed and ``MIN_PASSES`` are done."""
    run = _Run()
    t0 = perf_counter()
    while True:
        _pass(wl, run)
        elapsed = perf_counter() - t0
        if elapsed >= TIME_CAP_FACTOR * seconds:
            break
        if len(run.passes) >= MIN_PASSES and elapsed >= seconds:
            break
    return run


def _layer_metrics(tracer, untraced: _Run, traced: _Run) -> dict:
    """Per-layer values of the traced pass (see README for definitions)."""
    from trace import LAYERS, OTHER

    self_s, root_s, roots = tracer.self_times()
    out: dict[str, float] = {}
    for name, kind in [(layer.name, layer.root) for layer in LAYERS] + [(OTHER, "op")]:
        s = self_s[kind].get(name, 0.0)
        # per operation; set-up and check layers: total over the traced pass
        per = roots[kind] if kind == "op" else 1
        out[f"{name}_ms"] = 1000.0 * s / per if roots[kind] else 0.0
        out[f"{name}_pct"] = 100.0 * s / root_s[kind] if root_s[kind] else 0.0
    n = traced.ops
    c = traced.counts
    calls = tracer.counts["op"]
    out["overlay.builder.calls"] = calls["overlay.builder.build.calls"] / n
    out["overlay.builder.edges_scored"] = calls["overlay.builder.edges_scored"] / n
    for key in (
        "core.fast_lid.rounds",
        "core.fast_lid.messages",
        "distsim.lid.events",
        "distsim.resilient.events",
        "distsim.resilient.messages",
        "distsim.resilient.retransmissions",
        "overlay.churn.resolutions",
        "overlay.churn.edges_scanned",
        "service.full_resolves",
    ):
        out[key] = c[key] / n
    lid_msgs = c["distsim.lid.messages"]
    out["distsim.resilient.msg_ratio"] = (
        c["distsim.resilient.messages"] / lid_msgs if lid_msgs else 0.0
    )
    weights = c["overlay.churn.weights_reused"] + c["overlay.churn.weights_recomputed"]
    out["overlay.churn.weights_reuse_ratio"] = (
        c["overlay.churn.weights_reused"] / weights if weights else 0.0
    )
    written = c["service.checkpoints"]
    out["service.checkpoint.kb"] = c["service.checkpoint.kb"] / written if written else 0.0
    traced_s = sum(traced.passes[0])
    out["trace.op_ms"] = 1000.0 * traced_s / n
    out["trace.overhead_pct"] = 100.0 * (traced_s / sum(_typical(untraced.passes)) - 1.0)
    return out


def _timing_metrics(setup_s: list[float], passes: list[list[float]]) -> dict:
    """The timed end-to-end values of a run (see README for definitions)."""
    typical_ms = [1000.0 * s for s in _typical(passes)]
    return {
        "setup_s": statistics.median(setup_s),
        "op_ms": statistics.median(typical_ms),
        "op_p90_ms": _quantile(typical_ms, 0.9),
        "ops_per_s": 1000.0 * len(typical_ms) / sum(typical_ms),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
) -> dict:
    """Run one workload in this process and return its detail record."""
    from repro.telemetry import peak_rss_kb
    from trace import Tracer
    from workloads import make_workload

    wall0 = perf_counter()
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    wl = make_workload(name, seed, quick, workdir)
    try:
        untraced = _measure(wl, seconds)
        failures = list(untraced.failures)
        metrics = _timing_metrics(untraced.setup_s, untraced.passes)
        metrics["peak_rss_kb"] = peak_rss_kb()
        attempted, failed = untraced.ops, untraced.failed
        layers = None
        absent: list[str] = []
        if trace:
            traced = _Run()
            traced.deterministic = untraced.deterministic
            with Tracer() as tracer:
                _pass(wl, traced, tracer=tracer)
            failures += traced.failures
            layers = _layer_metrics(tracer, untraced, traced)
            absent = tracer.absent
            attempted += traced.ops
            failed += traced.failed
    finally:
        wl.reset()
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):
            WORK_DIR.rmdir()  # succeeds only once no other run uses it
    return {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "ops": wl.ops,
        "passes": len(untraced.passes),
        "capped": len(untraced.passes) < MIN_PASSES,
        "trace": trace,
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
        "metrics": metrics,
        "raw_metrics": _timing_metrics(untraced.raw_setup_s, untraced.raw_passes),
        "samples": {
            "setup_s": untraced.setup_s,
            "raw_setup_s": untraced.raw_setup_s,
            "op_ms": [[1000.0 * s for s in p] for p in untraced.passes],
            "raw_op_ms": [[1000.0 * s for s in p] for p in untraced.raw_passes],
        },
        "deterministic": untraced.deterministic,
        "layers": layers,
        "absent": absent,
        "wall_s": perf_counter() - wall0,
    }


def result_line(detail: dict, spec: dict) -> dict:
    """The one-line result: end-to-end metrics, or per-layer ones when traced."""
    listed = spec["per_layer"] if detail["trace"] else spec["end_to_end"]
    values = detail["layers"] if detail["trace"] else detail["metrics"]
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


# -- ledger mode -------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = perf_counter() - t0
    details = [ln[len("detail "):] for ln in proc.stdout.splitlines() if ln.startswith("detail ")]
    if not details:
        raise RuntimeError(
            f"{name} (trace={trace}) exited {proc.returncode} without a result:\n{proc.stderr[-2000:]}"
        )
    detail = json.loads(details[-1])
    detail["process_wall_s"] = wall
    return detail


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"samples": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def _fingerprint() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": sha,
    }


def run_ledger(spec: dict, seed: int, label: str, seconds: float, quick: bool, trace: bool) -> int:
    names = [w["name"] for w in spec["workloads"]]
    ledger = {
        "schema": 1,
        "label": label,
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "repeats": LEDGER_REPEATS,
        "fingerprint": _fingerprint(),
        "deterministic": {},
        "timing": {},
        "layers": {},
        "wall_s": {},
    }
    # round-robin over the workloads, so a slow spell of the machine is
    # spread over all of them instead of landing on one
    children: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(LEDGER_REPEATS):
        for name in names:
            children[name].append(_child(name, seed, seconds, 0, quick))
    ok = True
    for name in names:
        runs = children[name]
        traced = _child(name, seed, seconds, 1, quick) if trace else None
        witnesses = {json.dumps(r["deterministic"], sort_keys=True) for r in runs + [traced] if r}
        failures = [f for r in runs + [traced] if r for f in r["failures"]]
        if len(witnesses) > 1:
            failures.append("deterministic witnesses differ between children")
        ok = ok and not failures and all(r["correct"] for r in runs + [traced] if r)
        ledger["deterministic"][name] = runs[0]["deterministic"]
        timing = {key: dict(_summary([r["metrics"][key] for r in runs]), unit=unit)
                  for key, unit in E2E_UNITS.items()}
        timing["fail_ratio"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        timing["op_ms_samples"] = [r["samples"]["op_ms"] for r in runs]
        timing["setup_s_samples"] = [r["samples"]["setup_s"] for r in runs]
        timing["failures"] = failures[:20]
        ledger["timing"][name] = timing
        ledger["wall_s"][name] = {
            "untraced": [r["process_wall_s"] for r in runs],
            "traced": traced["process_wall_s"] if traced else None,
        }
        if traced:
            ledger["layers"][name] = {"values": traced["layers"], "absent": traced["absent"]}
        _print_workload(name, timing, traced)

    LEDGER_DIR.mkdir(parents=True, exist_ok=True)
    path = LEDGER_DIR / f"BENCH_{label}.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _print_walls(ledger["wall_s"], len(names))
    print(f"ledger: {path.relative_to(REPO)}")
    if not ok:
        print("CORRECTNESS FAILURES — see the ledger's timing.*.failures", file=sys.stderr)
    return 0 if ok else 1


def _print_workload(name: str, timing: dict, traced: "dict | None") -> None:
    passes = [len(s) for s in timing["op_ms_samples"]]
    print(f"\n== {name}  (fail_ratio {timing['fail_ratio']:.4g}, passes per run {passes})")
    for key, unit in E2E_UNITS.items():
        t = timing[key]
        print(f"  {key:<14} {t['median']:>14.6g} {unit:<6}"
              f" q1 {t['q1']:.6g}  q3 {t['q3']:.6g}")
    if traced:
        layers = traced["layers"]
        print(f"  traced: trace.op_ms {layers['trace.op_ms']:.6g} ms,"
              f" trace.overhead_pct {layers['trace.overhead_pct']:.3g} %")
        for key, value in layers.items():
            if key.endswith("_pct") and key != "trace.overhead_pct" and value >= 0.5:
                print(f"    {key:<40} {value:>7.2f} %")
        if traced["absent"]:
            print(f"  absent trace targets: {', '.join(traced['absent'])}")
    for f in timing["failures"]:
        print(f"  FAIL {f}")


def _print_walls(walls: dict, workloads: int) -> None:
    print("\nwall time per workload (s): untraced children | traced child")
    untraced_total = traced_total = 0.0
    for name, w in walls.items():
        untraced_total += sum(w["untraced"])
        traced_total += w["traced"] or 0.0
        traced = f"{w['traced']:.1f}" if w["traced"] is not None else "-"
        print(f"  {name:<16} {' '.join(f'{x:.1f}' for x in w['untraced'])} | {traced}")
    print(f"  total untraced {untraced_total:.1f} s, traced {traced_total:.1f} s")
    per_run = sum(statistics.mean(w["untraced"]) for w in walls.values())
    traced_runs = [w["traced"] for w in walls.values() if w["traced"] is not None]
    projected = 22 * per_run + 4 * (max(traced_runs) if traced_runs else per_run / workloads)
    print(f"  projected campaign ({4 + 22 * workloads} runs): {projected:.0f} s"
          f" of {CAMPAIGN_CAP_S:.0f} s")
    if projected > CAMPAIGN_CAP_S:
        print(f"WARNING: projected campaign time {projected:.0f} s exceeds"
              f" the {CAMPAIGN_CAP_S:.0f} s cap", file=sys.stderr)


# -- entry point -------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest", help="ledger name: BENCH_<label>.json")
    parser.add_argument("--quick", action="store_true", help="small inputs (tests)")
    parser.add_argument("--no-trace", action="store_true", help="ledger without the traced pass")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error(f"--label must match [A-Za-z0-9_.-]+, got {args.label!r}")

    for path in (str(REPO / "src"), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        spec = load_spec()
        import repro  # noqa: F401 - fail fast when the library is missing
    except (OSError, ValueError, ImportError) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(spec["run_seconds"])

    if args.workload is None:
        return run_ledger(spec, args.seed, args.label, seconds, args.quick, not args.no_trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    print("detail " + json.dumps(detail, sort_keys=True))
    for failure in detail["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    if detail["capped"]:
        print(f"warning: time cap reached after {detail['passes']} of {MIN_PASSES} passes",
              file=sys.stderr)
    print(json.dumps(result_line(detail, spec)), flush=True)
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
