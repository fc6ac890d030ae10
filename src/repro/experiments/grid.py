"""Resumable parallel execution of declarative parameter grids.

The execution layer behind ``python -m repro grid``: expand a
:class:`~repro.experiments.gridspec.GridSpec` into cells, run each cell
through its engine, and persist one JSON record per completed cell in a
content-addressed on-disk store, so a killed run restarts exactly where
it stopped.

Store layout (all JSON canonicalised with sorted keys)::

    <store>/
      spec.json             # {"version", "name", "hash", "spec": {...}}
      cells/<cell_id>.json  # one flat record per completed cell

``spec.json`` pins the spec hash the store was created for.  Opening a
store whose recorded hash differs from the spec being run raises
:class:`StaleStoreError` — stale cells are never silently reused; the
default CLI store path embeds the hash, so edited specs land in fresh
stores automatically.

Every record is ``cell coordinates + engine metrics + "ok"``.  All
metric fields are deterministic functions of the cell coordinates
except machine-dependent ones, which by convention carry a reserved
suffix (``_ms``/``_kb``/``_per_s``/``_x``) or are listed in
``aggregate.NONCANONICAL_FIELDS`` (the watchdog's ``retries``) and are
excluded from the canonical aggregate (so an interrupted-and-resumed
run reports byte-identically to an uninterrupted one — asserted in
``tests/experiments/test_grid.py``).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.core.backend import get_backend
from repro.experiments.gridspec import (
    LID_ENGINES,
    FaultSpec,
    GridCell,
    GridSpec,
    engine_backend,
)
from repro.experiments.instances import family_instance, random_preference_instance
from repro.telemetry.probes import ConvergenceProbe
from repro.telemetry.resources import ResourceSampler
from repro.telemetry.sink import read_jsonl, session_records, write_jsonl
from repro.telemetry.spans import NULL, Telemetry
from repro.utils.rng import spawn_rng

__all__ = [
    "CellTimeout",
    "GridRunResult",
    "GridStore",
    "StaleStoreError",
    "run_grid",
    "run_grid_cell",
]

STORE_VERSION = 1


class StaleStoreError(RuntimeError):
    """A result store keyed by a different spec hash was reused."""


class CellTimeout(RuntimeError):
    """A cell exceeded the per-cell wall-clock budget (picklable)."""


# ---------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


class GridStore:
    """One-JSON-per-cell result store, content-addressed by spec hash."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.cells_dir = self.root / "cells"

    @property
    def spec_path(self) -> Path:
        return self.root / "spec.json"

    def prepare(self, spec: GridSpec) -> None:
        """Create or verify the store for ``spec``.

        Raises :class:`StaleStoreError` when the store already holds
        cells of a different spec (changed hash, or cells with no
        recorded spec at all) — completed work is only ever reused for
        the byte-identical spec.
        """
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": STORE_VERSION,
            "name": spec.name,
            "hash": spec.spec_hash(),
            "spec": spec.to_mapping(),
        }
        if self.spec_path.exists():
            existing = json.loads(self.spec_path.read_text())
            if existing.get("hash") != payload["hash"]:
                raise StaleStoreError(
                    f"store {self.root} holds results for spec"
                    f" {existing.get('name')!r} hash {existing.get('hash')},"
                    f" but the current spec {spec.name!r} hashes to"
                    f" {payload['hash']}: refusing to reuse stale cells"
                    " (point --store at a fresh directory)"
                )
            return
        if self.done_ids():
            raise StaleStoreError(
                f"store {self.root} has cell files but no spec.json:"
                " cannot establish which spec produced them"
            )
        _atomic_write(self.spec_path,
                      json.dumps(payload, sort_keys=True, indent=1) + "\n")

    def spec_mapping(self) -> dict:
        """The stored spec payload (raises if the store is unprepared)."""
        return json.loads(self.spec_path.read_text())

    def done_ids(self) -> set[str]:
        if not self.cells_dir.is_dir():
            return set()
        return {p.stem for p in self.cells_dir.glob("*.json")}

    def save(self, cell_id: str, record: dict) -> None:
        _atomic_write(self.cells_dir / f"{cell_id}.json",
                      json.dumps(record, sort_keys=True) + "\n")

    def load(self, cell_id: str) -> dict:
        return json.loads((self.cells_dir / f"{cell_id}.json").read_text())

    # -- per-cell telemetry (one JSONL per executed cell) --------------

    @property
    def telemetry_dir(self) -> Path:
        return self.root / "telemetry"

    def telemetry_ids(self) -> set[str]:
        if not self.telemetry_dir.is_dir():
            return set()
        return {p.stem for p in self.telemetry_dir.glob("*.jsonl")}

    def save_telemetry(self, cell_id: str, records: list[dict]) -> None:
        """Persist a cell's telemetry session (atomic, canonical JSONL)."""
        write_jsonl(self.telemetry_dir / f"{cell_id}.jsonl", records)

    def load_telemetry(self, cell_id: str) -> list[dict]:
        return read_jsonl(self.telemetry_dir / f"{cell_id}.jsonl")


# ---------------------------------------------------------------------
# per-cell engines
# ---------------------------------------------------------------------


#: ER edge probability of resilient cells whose spec sets neither
#: ``density`` nor ``degree`` (the fault matrix's instance model)
RESILIENT_DENSITY = 0.15


def _instance(spec: GridSpec, cell: GridCell):
    """The cell's preference instance.

    Seeding never involves the engine axis.  With ``density`` or
    ``degree`` set, every engine draws the same Erdős–Rényi instance,
    so rows are directly comparable.  Without either, the static and
    truncated engines draw
    :func:`~repro.experiments.instances.family_instance`, while
    resilient cells draw ER at :data:`RESILIENT_DENSITY`.
    """
    if spec.density is not None:
        p = spec.density
    elif spec.degree is not None:
        p = spec.degree / cell.n
    elif cell.engine == "resilient":
        p = RESILIENT_DENSITY
    else:
        return family_instance(cell.family, cell.n, cell.b, seed=cell.seed)
    return random_preference_instance(cell.n, p, cell.b, seed=cell.seed)


def _sat_stats(ps, matching) -> dict:
    v = matching.satisfaction_vector(ps)
    return {
        "edges": int(matching.size()),
        "sat_total": float(v.sum()),
        "sat_mean": float(v.mean()),
        "sat_min": float(v.min()),
    }


def _ratio_fields(ps) -> dict:
    from repro.experiments.ratios import satisfaction_ratio_record

    rec = satisfaction_ratio_record(ps)
    rec.pop("n", None)  # already a cell coordinate
    return {k: (float(v) if isinstance(v, float) else v) for k, v in rec.items()}


def _run_static(spec: GridSpec, cell: GridCell, tel=NULL, probe=None) -> dict:
    ps = _instance(spec, cell)
    backend = get_backend(engine_backend(cell.engine))
    record: dict = {"m": int(ps.m)}

    if cell.engine in LID_ENGINES:
        wt = backend.build_weights(ps)
        t0 = time.perf_counter()
        res = backend.lid(wt, list(ps.quotas), telemetry=tel, probe=probe)
        record["lid_ms"] = 1e3 * (time.perf_counter() - t0)
        matching = res.matching
        record["messages"] = int(res.metrics.total_sent)
        record["rounds"] = int(res.rounds)
        record["events"] = int(res.metrics.events)
        record["msgs_per_edge"] = float(res.metrics.total_sent / max(ps.m, 1))
        record.update(res.metrics.kind_counters())
        if spec.verify:
            record["lid_equals_lic"] = (
                matching.edge_set() == backend.lic(wt, list(ps.quotas)).edge_set()
            )
    else:
        t0 = time.perf_counter()
        with tel.span("solve"):
            matching = backend.solve(ps)
        record["lic_ms"] = 1e3 * (time.perf_counter() - t0)

    record.update(_sat_stats(ps, matching))
    record["valid"] = matching.is_feasible(ps)
    if spec.measure_ratio:
        record.update(_ratio_fields(ps))
    record["ok"] = bool(
        record["valid"]
        and record.get("lid_equals_lic", True)
        and record.get("bound_ok", True)
    )
    return record


def _run_truncated(spec: GridSpec, cell: GridCell, tel=NULL, probe=None) -> dict:
    """The ``lid-truncated`` engine: quality-vs-k under a round budget.

    Runs the round-capped LID pipeline (fast backend — the truncated
    matching is engine-invariant under the shared contract of
    :mod:`repro.core.truncation`) and records the almost-stability
    observables: both blocking-pair counts (rank-based and eq.-9
    weighted), the satisfaction ratio against the converged (LIC)
    baseline, and the truncation accounting itself.  A cell is healthy
    when the matching validates and — on converged cells — the weighted
    blocking-pair count is exactly ``0`` and the ratio exactly ``1.0``
    (the LIC-fixpoint invariants of the truncation contract).
    """
    from repro.core.lid import solve_lid

    ps = _instance(spec, cell)
    t0 = time.perf_counter()
    res, _wt = solve_lid(ps, seed=cell.seed, backend="fast",
                         max_rounds=cell.max_rounds, telemetry=tel, probe=probe)
    trunc = res.truncation
    record: dict = {
        "m": int(ps.m),
        "lid_ms": 1e3 * (time.perf_counter() - t0),
        "messages": int(res.metrics.total_sent),
        "rounds": int(trunc.rounds),
        "converged": bool(trunc.converged),
        "released_locks": int(trunc.released_locks),
        "blocking_pairs": int(trunc.blocking_pairs),
        "weighted_blocking_pairs": int(trunc.weighted_blocking_pairs),
        "satisfaction": float(trunc.satisfaction),
        "satisfaction_ratio": float(trunc.satisfaction_ratio),
    }
    matching = res.matching
    record.update(_sat_stats(ps, matching))
    record["valid"] = matching.is_feasible(ps)
    fixpoint_ok = (
        not trunc.converged
        or (trunc.weighted_blocking_pairs == 0
            and trunc.satisfaction_ratio == 1.0)
    )
    record["ok"] = bool(record["valid"] and fixpoint_ok)
    return record


def _run_service(spec: GridSpec, cell: GridCell, tel=NULL) -> dict:
    """The long-lived ``lid-service`` engine: replay a churn workload.

    ``cell.churn`` is the trace length; workload shape and
    differential-check cadence come from the spec's ``service_*``
    knobs.  The overlay comes from the family alone, so a spec that
    sets ``density`` or ``degree`` rejects this engine.  A cell is
    healthy when the trace completes and every sampled differential
    check conforms exactly: the served matching is the fresh solve's,
    with no blocking edge and no oracle violation.
    """
    from repro.service import ServiceConfig, run_service

    config = ServiceConfig(
        n=cell.n,
        quota=cell.b,
        family=cell.family,
        seed=cell.seed,
        events=cell.churn,
        workload=spec.service_workload,
        differential_every=spec.service_differential_every,
    )
    record = dict(run_service(config, telemetry=tel).report)
    # the cell coordinates already carry these
    for dup in ("engine", "family", "seed", "quota", "n0"):
        record.pop(dup, None)
    record["ok"] = bool(record["completed"] and record["differential_ok"])
    return record


def _clean_blocking_edges(wt, quotas, result) -> int:
    """Weighted blocking edges of a faulty run, on the clean subgraph.

    The Lemma 4/6 no-blocking-edge certificate cannot hold verbatim
    under faults (a node whose partner crashed holds a wasted slot the
    restricted matching does not show), so it is evaluated where the
    claim actually applies: both endpoints *clean* (their protocol view
    equals the extracted matching) and neither endpoint withdrew the
    other (a withdrawn edge was severed by the failure detector, not
    declined by greedy choice).  On that subgraph the certificate is
    exact — any survivor is a genuine protocol bug.
    """
    from repro.core.analysis import weighted_blocking_edges

    clean = result.clean_nodes()
    return sum(
        1
        for i, j in weighted_blocking_edges(wt, quotas, result.matching)
        if i in clean and j in clean
        and j not in result.nodes[i].withdrawn
        and i not in result.nodes[j].withdrawn
    )


def _run_resilient(spec: GridSpec, cell: GridCell, tel=NULL,
                   probe=None) -> dict:
    """The ``resilient`` engine: one cell of the fault matrix.

    Runs resilient LID on an ER instance under the cell's fault model
    and judges it: every live honest node terminates, the invariant
    monitor records no violation, the live-honest matching is feasible
    and the clean subgraph has no weighted blocking edge.
    ``degradation`` is the live honest nodes' satisfaction divided by
    what the same nodes earn in the fault-free (LIC ≡ LID, Lemmas 4/6)
    matching — the price of the fault model.
    """
    from repro.core.lic import lic_matching
    from repro.core.resilient_lid import run_resilient_lid
    from repro.core.weights import satisfaction_weights
    from repro.distsim.failures import (
        BernoulliLoss,
        CrashSchedule,
        PartitionSchedule,
    )

    fault = FaultSpec.parse(cell.fault)
    t0 = time.perf_counter()
    ps = _instance(spec, cell)
    wt = satisfaction_weights(ps)
    quotas = list(ps.quotas)

    # the fault layout: Byzantine peers first, then crashes, from one
    # shuffle; a partition cuts off the shuffle's first half
    rng = spawn_rng(cell.seed, "campaign-plan", f"{fault.crash}",
                    f"{fault.byzantine}",
                    "part" if fault.partition else "nopart")
    ids = list(range(ps.n))
    rng.shuffle(ids)
    n_byz = int(round(fault.byzantine * ps.n))
    modes = ("reject_all", "accept_all")
    byzantine = {b: modes[k % 2] for k, b in enumerate(ids[:n_byz])}
    crash_ids = ids[n_byz:n_byz + int(round(fault.crash * ps.n))]
    crashes = None
    if crash_ids:
        times = 1.0 + 5.0 * rng.random(len(crash_ids))
        crashes = CrashSchedule(
            [(float(t), int(c)) for t, c in zip(times, crash_ids)]
        )
    partitions = None
    if fault.partition:
        start, end = spec.partition_window()
        partitions = PartitionSchedule([(start, end, [ids[: ps.n // 2]])])

    result = run_resilient_lid(
        wt,
        quotas,
        seed=cell.seed,
        drop_filter=BernoulliLoss(fault.loss) if fault.loss > 0 else None,
        crashes=crashes,
        partitions=partitions,
        byzantine=byzantine,
        backoff=spec.backoff_policy(),
        heartbeat_interval=spec.heartbeat_interval,
        suspect_after=spec.suspect_after,
        telemetry=tel if tel is not NULL else None,
        probe=probe,
    )
    valid = result.matching.is_feasible(ps)
    blocking = _clean_blocking_edges(wt, quotas, result)
    live_honest = result.live_honest
    vec_base = lic_matching(wt, quotas).satisfaction_vector(ps)
    vec_fault = result.matching.satisfaction_vector(ps)
    sat_base = float(sum(vec_base[i] for i in live_honest))
    sat_fault = float(sum(vec_fault[i] for i in live_honest))
    wall = time.perf_counter() - t0

    metrics = result.metrics
    return {
        "terminated": result.terminated,
        "violations": list(result.violations),
        "blocking_edges": blocking,
        "valid": valid,
        "live_honest": len(live_honest),
        "clean": len(result.clean_nodes()),
        "matched_edges": len(result.matching.edges()),
        "satisfaction": sat_fault,
        "baseline_satisfaction": sat_base,
        "retransmissions": metrics.retransmissions,
        "events": metrics.events,
        "degradation": sat_fault / sat_base if sat_base > 0.0 else 1.0,
        "resilient_ms": 1e3 * wall,
        "ok": bool(result.terminated and not result.violations and valid
                   and blocking == 0),
        **metrics.kind_counters(),
        "dropped": metrics.dropped,
        "duplicates_suppressed": metrics.duplicates_suppressed,
        "max_depth": metrics.max_depth,
    }


def _jsonable(value):
    """Coerce numpy scalars/containers so records survive the JSON store."""
    import numpy as np

    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def run_grid_cell(spec: GridSpec, cell: GridCell,
                  telemetry: bool = False) -> dict:
    """Run one cell and return its flat record (coordinates + metrics).

    With ``telemetry=True`` the cell runs instrumented — nested spans
    (``cell`` wrapping the engine's ``build_weights`` / ``sim_loop`` /
    ``extract``), a per-round convergence probe on protocol engines and
    a resource profile — and the session's JSONL records travel back
    under the transient ``"_telemetry"`` key (popped by the grid driver
    before the record is persisted; the deterministic record fields
    themselves are identical with telemetry on or off).
    """
    tel = Telemetry() if telemetry else NULL
    probe = ConvergenceProbe() if telemetry else None
    sampler = ResourceSampler().start() if telemetry else None
    with tel.span("cell"):
        if cell.engine == "resilient":
            metrics = _run_resilient(spec, cell, tel=tel, probe=probe)
        elif cell.engine == "lid-service":
            metrics = _run_service(spec, cell, tel=tel)
        elif cell.engine == "lid-truncated":
            metrics = _run_truncated(spec, cell, tel=tel, probe=probe)
        else:
            metrics = _run_static(spec, cell, tel=tel, probe=probe)
    record = _jsonable({**cell.coords(), **metrics})
    if telemetry:
        sampler.stop()
        record["_telemetry"] = session_records(
            {"cell": cell.cell_id, **record},
            spans=tel.records(),
            probes=probe.samples,
            resources=sampler.profile(events=record.get("events"),
                                      edges=record.get("m")),
        )
    return record


def _cell_job(
    spec: GridSpec,
    cell: GridCell,
    telemetry: bool = False,
    timeout: Optional[float] = None,
) -> dict:
    """Module-level shim so cells survive pickling to worker processes.

    With a ``timeout`` the cell runs under a worker-side wall-clock
    watchdog: ``SIGALRM``/``setitimer`` interrupts a hung cell and
    raises the picklable :class:`CellTimeout` back to the driver.  The
    alarm needs a main-thread POSIX process — elsewhere (Windows,
    worker threads) the watchdog degrades to an unguarded run rather
    than failing.
    """
    import signal
    import threading

    if (
        timeout is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return run_grid_cell(spec, cell, telemetry=telemetry)

    def _alarm(signum, frame):
        raise CellTimeout(
            f"cell {cell.cell_id} exceeded its {timeout:g}s budget"
        )

    old_handler = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return run_grid_cell(spec, cell, telemetry=telemetry)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


def _timeout_record(cell: GridCell, retries: int, exc: CellTimeout) -> dict:
    """The persisted record for a cell that timed out twice."""
    return {
        **cell.coords(),
        "ok": False,
        "error": "timeout",
        "error_detail": str(exc),
        "retries": retries,
    }


# ---------------------------------------------------------------------
# grid driver
# ---------------------------------------------------------------------


@dataclass
class GridRunResult:
    """All records of a grid run, in deterministic cell order."""

    spec: GridSpec
    records: list[dict]
    executed: int
    reused: int

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.records)

    @property
    def failures(self) -> list[dict]:
        return [r for r in self.records if not r["ok"]]


def run_grid(
    spec: GridSpec,
    store: "GridStore | str | Path | None" = None,
    workers: Optional[int] = None,
    progress: Optional[Callable[[GridCell, dict], None]] = None,
    telemetry: bool = False,
    cell_timeout: Optional[float] = None,
) -> GridRunResult:
    """Run every missing cell of ``spec``; reuse completed ones.

    Without a ``store`` the grid runs ephemerally in memory.  With one,
    each finished cell is persisted immediately (atomic rename), so a
    killed run loses at most the cells in flight; re-running the same
    spec completes only the gap.  ``workers > 1`` evaluates pending
    cells in a process pool; record order is the deterministic
    :meth:`~repro.experiments.gridspec.GridSpec.cells` order either way.

    ``progress`` receives ``(cell, record)`` for each *newly executed*
    cell as it completes (completion order, not cell order).

    ``telemetry=True`` instruments each executed cell (spans, probes,
    resource profile) and persists one ``telemetry/<cell_id>.jsonl``
    per cell next to its record.  Telemetry is a per-execution session:
    cells reused from a previous run keep whatever telemetry (if any)
    that run wrote.  The cell records themselves are unaffected — the
    spec hash, and therefore store identity, does not depend on it.

    ``cell_timeout`` (seconds) arms a per-cell hung-cell watchdog: a
    cell that exceeds the budget is killed by an in-worker alarm and
    retried exactly once; a second timeout persists an ``ok=False``
    record with ``error="timeout"``.  Executed cells record how many
    retries they needed under ``"retries"`` — a scheduling observable,
    excluded from the canonical aggregate like all non-metric fields.
    """
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
    if store is not None and not isinstance(store, GridStore):
        store = GridStore(store)
    if store is not None:
        store.prepare(spec)

    cells = spec.cells()
    done = store.done_ids() if store is not None else set()
    pending = [c for c in cells if c.cell_id not in done]

    by_id: dict[str, dict] = {}
    if store is not None:
        for cell in cells:
            if cell.cell_id in done:
                by_id[cell.cell_id] = store.load(cell.cell_id)

    def finish(cell: GridCell, record: dict) -> None:
        session = record.pop("_telemetry", None)
        by_id[cell.cell_id] = record
        if store is not None:
            store.save(cell.cell_id, record)
            if session is not None:
                store.save_telemetry(cell.cell_id, session)
        if progress is not None:
            progress(cell, record)

    if workers is not None and workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_cell_job, spec, c, telemetry, cell_timeout):
                       (c, 0) for c in pending}
            while futures:
                ready, _ = wait(futures, return_when=FIRST_COMPLETED)
                for fut in ready:
                    cell, attempts = futures.pop(fut)
                    try:
                        record = fut.result()
                    except CellTimeout as exc:
                        if attempts >= 1:
                            finish(cell, _timeout_record(cell, attempts, exc))
                        else:
                            retry = pool.submit(_cell_job, spec, cell,
                                                telemetry, cell_timeout)
                            futures[retry] = (cell, attempts + 1)
                        continue
                    record["retries"] = attempts
                    finish(cell, record)
    else:
        for cell in pending:
            attempts = 0
            while True:
                try:
                    record = _cell_job(spec, cell, telemetry, cell_timeout)
                except CellTimeout as exc:
                    if attempts >= 1:
                        finish(cell, _timeout_record(cell, attempts, exc))
                        break
                    attempts += 1
                    continue
                record["retries"] = attempts
                finish(cell, record)
                break

    records = [by_id[c.cell_id] for c in cells]
    return GridRunResult(spec=spec, records=records,
                         executed=len(pending), reused=len(cells) - len(pending))
