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
from dataclasses import asdict, dataclass
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
from repro.experiments.instances import (
    family_instance,
    random_preference_instance,
    topology_for_family,
)
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
    "churn_session",
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


def _instance(spec: GridSpec, cell: GridCell):
    """The cell's preference instance — engine-independent by design.

    Seeding never involves the engine axis, so every engine of a grid
    sees bit-identical instances and rows are directly comparable.
    """
    if spec.density is not None:
        return random_preference_instance(cell.n, spec.density, cell.b,
                                          seed=cell.seed)
    if spec.degree is not None:
        return random_preference_instance(cell.n, spec.degree / cell.n, cell.b,
                                          seed=cell.seed)
    return family_instance(cell.family, cell.n, cell.b, seed=cell.seed)


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
    try:
        matching.validate(ps)
        record["valid"] = True
    except Exception:
        record["valid"] = False
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
    res, _wt = solve_lid(ps, seed=cell.seed, backend=engine_backend(cell.engine),
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
    try:
        matching.validate(ps)
        record["valid"] = True
    except Exception:
        record["valid"] = False
    fixpoint_ok = (
        not trunc.converged
        or (trunc.weighted_blocking_pairs == 0
            and trunc.satisfaction_ratio == 1.0)
    )
    record["ok"] = bool(record["valid"] and fixpoint_ok)
    return record


def churn_session(overlay, rng, events: int, n0: int,
                  quota: int) -> tuple[int, int, int]:
    """Apply ``events`` random joins and leaves to a ``DynamicOverlay``.

    Each event draws from ``rng``: with probability ½ (while more than
    ``max(10, n0 // 3)`` peers are alive) a random peer leaves,
    otherwise a peer with quota ``quota`` joins next to 2–5 random live
    peers.  Returns the summed repair statistics ``(resolutions,
    weights_reused, weights_recomputed)``.
    """
    from repro.overlay.peer import Peer

    changes = reused = recomputed = 0
    for _ in range(events):
        if rng.random() < 0.5 and overlay.n > max(10, n0 // 3):
            stats = overlay.leave(int(rng.choice(overlay.active_ids())))
        else:
            ids = overlay.active_ids()
            k = min(int(rng.integers(2, 6)), len(ids))
            neigh = [int(x) for x in rng.choice(ids, size=k, replace=False)]
            _, stats = overlay.join(
                Peer(peer_id=-1, position=rng.uniform(0, 1, 2), quota=quota),
                neigh,
            )
        changes += stats.resolutions
        reused += stats.weights_reused
        recomputed += stats.weights_recomputed
    return changes, reused, recomputed


def _run_churn(spec: GridSpec, cell: GridCell, tel=NULL) -> dict:
    from repro.overlay import DynamicOverlay
    from repro.overlay.metrics import PrivateTasteMetric
    from repro.overlay.peer import generate_peers

    with tel.span("build_overlay"):
        rng = spawn_rng(cell.seed, "grid-churn", cell.family, str(cell.n),
                        str(cell.b))
        topo = topology_for_family(cell.family, cell.n, rng)
        peers = generate_peers(cell.n, rng, quota_range=(cell.b, cell.b))
        overlay = DynamicOverlay(topo, peers, PrivateTasteMetric(seed=cell.seed),
                                 backend=engine_backend(cell.engine))
    t0 = time.perf_counter()
    with tel.span("churn_loop"):
        changes, reused, recomputed = churn_session(overlay, rng, cell.churn,
                                                    cell.n, cell.b)
    wall = time.perf_counter() - t0
    return {
        "alive": int(overlay.n),
        "changes": int(changes),
        "sat_total": float(overlay.total_satisfaction()),
        "weights_reused": int(reused),
        "weights_recomputed": int(recomputed),
        "churn_ms": 1e3 * wall,
        "ok": True,
    }


def _run_service(spec: GridSpec, cell: GridCell, tel=NULL) -> dict:
    """The long-lived ``lid-service`` engine: replay a churn workload.

    ``cell.churn`` is the trace length; workload shape, repair budget
    and differential-check cadence come from the spec's ``service_*``
    knobs.  A cell is healthy when the trace completes and every
    sampled differential check conforms (exactly, or within the
    documented truncation-debt bound in deferred-budget setups).
    """
    from repro.service import ServiceConfig, run_service

    config = ServiceConfig(
        n=cell.n,
        quota=cell.b,
        family=cell.family,
        seed=cell.seed,
        events=cell.churn,
        workload=spec.service_workload,
        backend=engine_backend(cell.engine),
        repair_budget=spec.service_budget,
        differential_every=spec.service_differential_every,
    )
    record = dict(run_service(config, telemetry=tel).report)
    # the cell coordinates already carry these
    for dup in ("engine", "family", "seed", "quota", "n0"):
        record.pop(dup, None)
    record["ok"] = bool(record["completed"] and record["differential_ok"])
    return record


def _run_resilient(spec: GridSpec, cell: GridCell, tel=NULL,
                   probe=None) -> dict:
    from repro.distsim.metrics import SimMetrics
    from repro.distsim.reliable import BackoffPolicy
    from repro.experiments.campaign import CampaignConfig
    from repro.experiments.campaign import run_cell as run_fault_cell

    fault = FaultSpec.parse(cell.fault)
    config = CampaignConfig(
        n=cell.n,
        density=spec.density if spec.density is not None else 0.15,
        quota=cell.b,
        loss_rates=(fault.loss,),
        crash_fracs=(fault.crash,),
        partition=(fault.partition,),
        byzantine_fracs=(fault.byzantine,),
        seeds=(cell.seed,),
        heartbeat_interval=spec.heartbeat_interval,
        suspect_after=spec.suspect_after,
        partition_start=spec.partition_start,
        backoff=BackoffPolicy(*spec.backoff) if spec.backoff else BackoffPolicy(),
    )
    metrics_out: dict = {}
    t0 = time.perf_counter()
    cc = run_fault_cell(config, fault.loss, fault.crash, fault.partition,
                        fault.byzantine, cell.seed,
                        telemetry=tel if tel is not NULL else None,
                        probe=probe, metrics_out=metrics_out)
    wall = time.perf_counter() - t0
    record = asdict(cc)
    # the coordinates already carry the fault model and seed
    for coord in ("loss", "crash_frac", "partitioned", "byzantine_frac", "seed"):
        record.pop(coord)
    record["satisfaction"] = float(record["satisfaction"])
    record["baseline_satisfaction"] = float(record["baseline_satisfaction"])
    record["degradation"] = float(cc.degradation)
    record["resilient_ms"] = 1e3 * wall
    record["ok"] = bool(cc.ok)
    sim_metrics = SimMetrics.from_dict(metrics_out)
    record.update(sim_metrics.kind_counters())
    record["dropped"] = sim_metrics.dropped
    record["duplicates_suppressed"] = sim_metrics.duplicates_suppressed
    record["max_depth"] = sim_metrics.max_depth
    return record


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
        elif cell.churn:
            metrics = _run_churn(spec, cell, tel=tel)
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
