"""Aggregation and reporting over grid result stores.

Joins the per-cell JSON records of a :class:`~repro.experiments.grid
.GridStore` into the summary tables and CSVs that back EXPERIMENTS.md
and ``benchmarks/results/`` — one command regenerates everything
(``python -m repro grid report``).  :func:`aggregate` is the generic
group-and-reduce step underneath; the benches apply it to grid records
and to their own record lists.

Determinism contract: the canonical outputs (``report.md`` and
``summary.csv``) are pure functions of the cell *coordinates* — every
machine-dependent field (the reserved suffixes of
:data:`repro.telemetry.sink.NONDETERMINISTIC_SUFFIXES`: ``_ms``,
``_kb``, ``_per_s``, ``_x``) and every scheduling observable
(:data:`NONCANONICAL_FIELDS`, e.g. the watchdog's ``retries`` count)
is excluded — so a resumed run reports byte-identically to an
uninterrupted one.  ``cells.csv`` keeps the raw records *including*
timings and is explicitly not part of that contract.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.experiments.grid import GridStore
from repro.experiments.gridspec import GridSpec
from repro.experiments.reporting import write_csv
from repro.telemetry.sink import NONDETERMINISTIC_SUFFIXES

__all__ = [
    "GridIncompleteError",
    "NONCANONICAL_FIELDS",
    "aggregate",
    "collect_records",
    "grid_status",
    "render_report",
    "summarise",
    "write_report",
]

#: cell-coordinate fields (the group key is every coordinate but the
#: seed — including ``max_rounds``, so each truncation budget gets its
#: own summary row instead of being averaged away like a seed)
COORDS = ("engine", "family", "n", "b", "churn", "fault", "max_rounds", "seed")
GROUP_BY = [c for c in COORDS if c != "seed"]

#: wall-clock fields carry this suffix and never enter canonical outputs
#: (kept as an alias of the narrow historical rule; the full exclusion
#: set is NONDETERMINISTIC_SUFFIXES, shared with the telemetry sink)
TIMING_SUFFIX = "_ms"

#: run-shape observables that are not metrics of the cell coordinates
#: (e.g. how many watchdog retries a cell needed on this machine)
NONCANONICAL_FIELDS = ("retries",)

#: metrics reduced to their worst case over seeds rather than the mean
WORST_CASE = {"ratio": min, "lid_equals_lic": min, "valid": min,
              "degradation": min, "terminated": min}


class GridIncompleteError(RuntimeError):
    """A report was requested over a store with missing cells."""


def grid_status(spec: GridSpec, store: GridStore) -> dict:
    """Progress of a store against a spec: total/done/missing cells."""
    cells = spec.cells()
    done = store.done_ids()
    missing = [c.cell_id for c in cells if c.cell_id not in done]
    return {
        "name": spec.name,
        "hash": spec.spec_hash(),
        "total": len(cells),
        "done": len(cells) - len(missing),
        "missing": missing,
    }


def collect_records(
    spec: GridSpec, store: GridStore, allow_partial: bool = False
) -> list[dict]:
    """Load all cell records in deterministic cell order."""
    done = store.done_ids()
    records, missing = [], 0
    for cell in spec.cells():
        if cell.cell_id in done:
            records.append(store.load(cell.cell_id))
        else:
            missing += 1
    if missing and not allow_partial:
        raise GridIncompleteError(
            f"grid {spec.name!r} has {missing} incomplete cells"
            " — run `python -m repro grid run` to fill them"
            " (or pass --partial to report what exists)"
        )
    return records


def aggregate(
    records: Iterable[Mapping],
    group_by: Sequence[str],
    fields: Sequence[str],
    reducers: Mapping[str, Callable[[list], float]] | None = None,
) -> list[dict]:
    """Group records and reduce numeric fields (mean by default).

    ``reducers`` may map a field to e.g. ``min``/``max``/``statistics.stdev``.
    Boolean fields aggregate to the fraction of ``True``.  A reducer
    that needs at least two data points (``statistics.stdev`` on a
    single-record group) yields ``None`` for that field rather than
    raising, so sparse sweeps still aggregate.
    """
    reducers = dict(reducers or {})
    groups: dict[tuple, list[Mapping]] = {}
    for rec in records:
        # .get: records written before a coordinate existed (e.g. a
        # store predating the max_rounds axis) group under None
        key = tuple(rec.get(g) for g in group_by)
        groups.setdefault(key, []).append(rec)
    out = []
    for key, recs in groups.items():
        row = dict(zip(group_by, key))
        row["count"] = len(recs)
        for f in fields:
            vals = [r[f] for r in recs if f in r]
            if not vals:
                continue
            if all(isinstance(v, bool) for v in vals):
                row[f] = sum(vals) / len(vals)
            else:
                reducer = reducers.get(f, statistics.fmean)
                try:
                    row[f] = reducer([float(v) for v in vals])
                except statistics.StatisticsError:
                    row[f] = None
        out.append(row)
    return out


def _metric_fields(records: Iterable[Mapping]) -> list[str]:
    """Aggregatable metric fields, first-seen order.

    Excludes coordinates, every machine-dependent suffix (``_ms``,
    ``_kb``, ``_per_s``, ``_x``) and the explicit non-canonical
    scheduling fields such as ``retries``.
    """
    fields: list[str] = []
    for rec in records:
        for key, value in rec.items():
            if key in COORDS or key in fields:
                continue
            if key.endswith(NONDETERMINISTIC_SUFFIXES):
                continue
            if key in NONCANONICAL_FIELDS:
                continue
            if isinstance(value, (bool, int, float)):
                fields.append(key)
    return fields


def summarise(records: Sequence[Mapping]) -> list[dict]:
    """Reduce records over seeds: one row per (engine, family, n, b,
    churn, fault) group, mean metrics except the worst-case set
    (``ratio``, ``valid``, ``degradation`` …, reduced with ``min``)."""
    if not records:
        return []
    fields = _metric_fields(records)
    reducers = {k: v for k, v in WORST_CASE.items() if k in fields}
    return aggregate(records, GROUP_BY, fields, reducers=reducers)


def _md(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return "-"
    return str(value)


def _md_table(rows: Sequence[Mapping]) -> str:
    if not rows:
        return "(no rows)\n"
    columns: list[str] = []
    for r in rows:
        for c in r:
            if c not in columns:
                columns.append(c)
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for r in rows:
        lines.append("| " + " | ".join(_md(r.get(c, "")) for c in columns) + " |")
    return "\n".join(lines) + "\n"


def render_report(spec: GridSpec, records: Sequence[Mapping],
                  missing: int = 0) -> str:
    """The canonical markdown report for a grid (deterministic bytes)."""
    summary = summarise(records)
    failures = [r for r in records if not r.get("ok", False)]
    lines = [
        f"# Grid report — {spec.name}",
        "",
        f"- spec hash: `{spec.spec_hash()}`",
        f"- cells: {len(records)} recorded"
        + (f", {missing} missing" if missing else ""),
        f"- failures: {len(failures)}",
        "",
        "## Summary (aggregated over seeds; worst-case for"
        " ratio/valid/degradation)",
        "",
        _md_table(summary),
    ]
    if failures:
        lines += [
            "## Failing cells",
            "",
            _md_table([
                {k: r.get(k) for k in
                 (*GROUP_BY, "seed", "ok", "valid", "violations")}
                for r in failures
            ]),
        ]
    return "\n".join(lines)


def write_report(
    spec: GridSpec,
    store: GridStore,
    out_dir: "str | Path | None" = None,
    allow_partial: bool = False,
) -> dict[str, Path]:
    """Write ``report.md``/``summary.csv``/``cells.csv`` into the store.

    With ``out_dir`` the canonical outputs are additionally copied as
    ``grid_<name>_summary.csv`` / ``grid_<name>_report.md`` — the form
    archived under ``benchmarks/results/``.
    """
    records = collect_records(spec, store, allow_partial=allow_partial)
    missing = len(spec.cells()) - len(records)
    summary = summarise(records)
    report = render_report(spec, records, missing=missing)

    paths = {
        "report": store.root / "report.md",
        "summary": store.root / "summary.csv",
        "cells": store.root / "cells.csv",
    }
    paths["report"].write_text(report)
    write_csv(summary, paths["summary"])
    write_csv(records, paths["cells"])

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths["out_summary"] = out / f"grid_{spec.name}_summary.csv"
        paths["out_report"] = out / f"grid_{spec.name}_report.md"
        write_csv(summary, paths["out_summary"])
        paths["out_report"].write_text(report)
    return paths
