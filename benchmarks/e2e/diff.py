"""Compare two end-to-end benchmark ledgers.

    python3 benchmarks/e2e/diff.py benchmarks/e2e/ledger/BENCH_a.json \\
        benchmarks/e2e/ledger/BENCH_b.json

For every workload and end-to-end metric it prints both medians and
quartiles and the change of B against A as a share of A's median
(positive means worse), with a verdict against the metric's bound from
``BENCHMARK.json``:

- ``ok``: the change is within the bound;
- ``REGRESSED``: worse by more than the bound, with both spreads within
  it, or with every sample of B worse than every sample of A by more
  than the bound;
- ``better``: better by more than the bound;
- ``unresolved``: a spread (quartile distance over median) is wider than
  the bound, so the runs cannot tell a change of that size from noise —
  unless every sample of B reads better than every sample of A, which
  is ``better``, or the samples separate as for ``REGRESSED`` above.

Then the deterministic sections (compared byte for byte) and the
per-layer values of the traced passes.  Exits 1 on a regression or on
any deterministic drift, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, float, str]:
    """``(change, spread, verdict)`` of B against A for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (a["q3"] - a["q1"]) / a["median"] if a["median"] else 0.0,
        (b["q3"] - b["q1"]) / b["median"] if b["median"] else 0.0,
    )
    if better == "lower":
        all_better = max(b["samples"]) < min(a["samples"])
        all_worse = min(b["samples"]) > max(a["samples"]) * (1.0 + bound)
    else:
        all_better = min(b["samples"]) > max(a["samples"])
        all_worse = max(b["samples"]) < min(a["samples"]) * (1.0 - bound)
    if spread > bound:
        if all_better:
            return change, spread, "better"
        return change, spread, "REGRESSED" if all_worse else "unresolved"
    if change > bound:
        return change, spread, "REGRESSED"
    if -change > bound:
        return change, spread, "better"
    return change, spread, "ok"


def compare(a: dict, b: dict, spec: dict) -> int:
    """Print the comparison; return the exit status."""
    status = 0
    for key in ("seed", "quick", "seconds", "repeats"):
        if a.get(key) != b.get(key):
            print(f"note: {key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    for key in sorted(set(a["fingerprint"]) | set(b["fingerprint"])):
        fa, fb = a["fingerprint"].get(key), b["fingerprint"].get(key)
        if fa != fb:
            print(f"note: fingerprint {key}: {fa!r} vs {fb!r}")

    workloads = [w["name"] for w in spec["workloads"]]
    print(f"\nend-to-end: {a['label']} -> {b['label']} (change > 0 is worse)")
    for name in workloads:
        if name not in a["timing"] or name not in b["timing"]:
            print(f"  {name}: missing from one ledger")
            continue
        print(f"  {name}")
        for m in spec["end_to_end"]:
            ta, tb = a["timing"][name][m["name"]], b["timing"][name][m["name"]]
            change, spread, v = verdict(ta, tb, m["better"], m["bound"])
            if v == "REGRESSED":
                status = 1
            print(
                f"    {m['name']:<12} {ta['median']:>12.6g} [{ta['q1']:.6g}, {ta['q3']:.6g}]"
                f" -> {tb['median']:>12.6g} [{tb['q1']:.6g}, {tb['q3']:.6g}] {m['unit']:<4}"
                f" change {change:+7.2%} spread {spread:6.2%} bound {m['bound']:.0%}  {v}",
            )
        bounded = {m["name"] for m in spec["end_to_end"]}
        for key, ta in a["timing"][name].items():
            tb = b["timing"][name].get(key)
            if key not in bounded and isinstance(ta, dict) and isinstance(tb, dict):
                print(f"    {key:<12} {ta['median']:>12.6g} -> {tb['median']:>12.6g}"
                      f" {ta['unit']:<4} (no bound)")

    print("\ndeterministic sections:")
    for name in workloads:
        da, db = a["deterministic"].get(name), b["deterministic"].get(name)
        if json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True):
            print(f"  {name}: identical")
            continue
        status = 1
        keys = sorted(k for k in set(da or {}) | set(db or {})
                      if (da or {}).get(k) != (db or {}).get(k))
        print(f"  {name}: DRIFT in {', '.join(keys) or 'presence'}")

    print("\nper-layer (traced pass):")
    for name in workloads:
        la = a["layers"].get(name, {}).get("values")
        lb = b["layers"].get(name, {}).get("values")
        if la is None or lb is None:
            print(f"  {name}: no traced pass in one ledger")
            continue
        print(f"  {name}")
        for key in sorted(set(la) | set(lb)):
            va, vb = la.get(key, 0.0), lb.get(key, 0.0)
            if va == 0 and vb == 0:
                continue
            rel = f"{(vb - va) / va:+7.1%}" if va else "    new"
            print(f"    {key:<40} {va:>12.5g} -> {vb:>12.5g}  {rel}")
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two BENCH_*.json ledgers.")
    parser.add_argument("a", type=Path, help="baseline ledger")
    parser.add_argument("b", type=Path, help="ledger to compare against the baseline")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    a = json.loads(args.a.read_text(encoding="utf-8"))
    b = json.loads(args.b.read_text(encoding="utf-8"))
    return compare(a, b, spec)


if __name__ == "__main__":
    sys.exit(main())
