"""Drive a :class:`MatchingService` through a workload trace.

The runner owns everything around the service: trace generation,
periodic checkpoints, sampled differential conformance checks, the
final report, and the kill-and-resume bit-identity check that backs the
``service-smoke`` CI gate.

Determinism contract
--------------------
Every field of the run report is deterministic in the
:class:`ServiceConfig` except those with the reserved
machine-dependent suffixes (``_ms``, ``_per_s``, ``_x`` — see
:data:`repro.telemetry.sink.NONDETERMINISTIC_SUFFIXES`).  A run killed
at any event and resumed from its last checkpoint produces a report
whose deterministic subset is byte-identical to an uninterrupted run —
:func:`kill_and_resume_check` asserts exactly that.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.experiments.instances import FAMILIES, topology_for_family
from repro.overlay.metrics import DistanceMetric, PrivateTasteMetric
from repro.overlay.peer import generate_peers
from repro.service.checkpoint import (
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.differential import DifferentialReport, conformance_check
from repro.service.events import WORKLOADS, WorkloadTrace, make_trace
from repro.service.service import MatchingService
from repro.telemetry.sink import canonical_fields
from repro.utils.rng import spawn_rng

__all__ = [
    "ServiceConfig",
    "ServiceRunResult",
    "build_service",
    "kill_and_resume_check",
    "run_service",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service run is deterministic in."""

    n: int = 100
    quota: int = 3
    family: str = "geo"
    seed: int = 0
    events: int = 200
    workload: str = "poisson"
    checkpoint_every: int = 25
    differential_every: int = 50

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.quota < 1:
            raise ValueError(f"quota must be >= 1, got {self.quota}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"workload must be one of {sorted(WORKLOADS)}, got {self.workload!r}"
            )
        if self.events < 0:
            raise ValueError(f"events must be >= 0, got {self.events}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.differential_every < 0:
            raise ValueError(
                f"differential_every must be >= 0, got {self.differential_every}"
            )

    def trace(self) -> WorkloadTrace:
        """The workload trace; its joiners take this config's quota."""
        return make_trace(self.workload, self.events, self.seed, self.quota)

    def metric(self):
        """The service metric, reconstructible from the config alone.

        A distance base blended half and half with peer-private taste:
        position updates genuinely re-rank neighbourhoods (pure taste
        would make ``update`` events no-ops), while taste keeps
        preferences heterogeneous enough to exercise the paper's weight
        machinery.
        """
        return PrivateTasteMetric(self.seed, base=DistanceMetric(), blend=0.5)


#: the config fields that never change the served state, so they stay
#: out of the checkpoint fingerprint: a resume may change either
_CADENCE_FIELDS = ("checkpoint_every", "differential_every")


def _run_fingerprint(config: ServiceConfig, trace_fingerprint: str) -> str:
    """12-hex digest pinning a run's checkpoints to that run.

    It covers the trace plus every config field that shapes the served
    state.  Configs that share a trace but differ in ``n`` or ``family``
    therefore never restore each other's checkpoints, nor do configs
    that differ in ``quota``, whose traces differ too unless they hold
    no join.
    """
    pinned = {k: v for k, v in asdict(config).items() if k not in _CADENCE_FIELDS}
    canon = json.dumps([trace_fingerprint, pinned], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclass
class ServiceRunResult:
    """A finished (or killed) run: the report plus live objects."""

    report: dict
    service: MatchingService
    differentials: list[DifferentialReport] = field(default_factory=list)


def build_service(config: ServiceConfig) -> MatchingService:
    """Construct the initial overlay + service for a config."""
    rng = spawn_rng(config.seed, "service-init", config.family, str(config.n))
    topology = topology_for_family(config.family, config.n, rng)
    peers = generate_peers(
        config.n, rng, quota_range=(config.quota, config.quota)
    )
    return MatchingService(topology, peers, config.metric())


def _matching_sha(service: MatchingService) -> str:
    """12-hex digest of the served matching in external-id space."""
    edges = sorted(
        (pid, q)
        for pid, partners in service._partners.items()
        for q in partners
        if pid < q
    )
    canon = json.dumps(edges, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def run_service(
    config: ServiceConfig,
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
    kill_after: Optional[int] = None,
    telemetry=None,
) -> ServiceRunResult:
    """Replay the config's trace through a service.

    Parameters
    ----------
    checkpoint_dir:
        When given, write an initial snapshot plus one every
        ``config.checkpoint_every`` events (atomic, versioned).
    resume:
        Restore from this run's newest intact checkpoint in
        ``checkpoint_dir`` and replay only the remaining events.  The
        checkpoints pin the trace and every config field but the two
        cadences; when none in the directory pins this run, or the
        newest one holds a state :meth:`MatchingService.restore`
        rejects, :class:`CheckpointError` is raised.
    kill_after:
        Stop abruptly once this many events have been applied — *no*
        final checkpoint, simulating a crash that loses everything
        since the last periodic snapshot.  A negative count raises
        :class:`ValueError`.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; the replay loop
        runs inside a ``service-replay`` span when given.
    """
    if kill_after is not None and kill_after < 0:
        raise ValueError(f"kill_after must be >= 0, got {kill_after}")
    trace = config.trace()
    fingerprint = trace.fingerprint()
    pin = _run_fingerprint(config, fingerprint)
    metric = config.metric()
    if resume:
        if checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        path = latest_checkpoint(checkpoint_dir, fingerprint=pin)
        if path is None:
            raise CheckpointError(
                f"no intact checkpoint under {checkpoint_dir} pins trace"
                f" {fingerprint!r} with this config"
            )
        payload = load_checkpoint(path, fingerprint=pin)
        try:
            service = MatchingService.restore(payload["state"], metric)
        except ValueError as exc:
            raise CheckpointError(f"checkpoint {path}: {exc}") from exc
        start_seq = int(payload["seq"])
    else:
        service = build_service(config)
        start_seq = 0
        if checkpoint_dir is not None:
            write_checkpoint(checkpoint_dir, 0, pin, service.snapshot())
    stop_at = len(trace.events)
    if kill_after is not None:
        stop_at = min(max(kill_after, start_seq), stop_at)
    differentials: list[DifferentialReport] = []
    repair_s: list[float] = []
    full_solve_s: list[float] = []
    span = telemetry.span("service-replay") if telemetry is not None else None
    if span is not None:
        span.__enter__()
    t0 = perf_counter()
    try:
        for event in trace.events[start_seq:stop_at]:
            e0 = perf_counter()
            service.apply(event)
            repair_s.append(perf_counter() - e0)
            done = event.seq + 1
            if checkpoint_dir is not None and done % config.checkpoint_every == 0:
                write_checkpoint(checkpoint_dir, done, pin, service.snapshot())
            if config.differential_every and done % config.differential_every == 0:
                f0 = perf_counter()
                differentials.append(conformance_check(service))
                full_solve_s.append(perf_counter() - f0)
    finally:
        if span is not None:
            span.__exit__(None, None, None)
    elapsed = perf_counter() - t0
    completed = stop_at == len(trace.events)
    if checkpoint_dir is not None and completed:
        write_checkpoint(checkpoint_dir, len(trace.events), pin, service.snapshot())
    final_diff = conformance_check(service) if completed else None
    if final_diff is not None:
        differentials.append(final_diff)
    mean_repair = sum(repair_s) / len(repair_s) if repair_s else 0.0
    mean_full = sum(full_solve_s) / len(full_solve_s) if full_solve_s else 0.0
    report = {
        "engine": "lid-service",
        "workload": config.workload,
        "family": config.family,
        "seed": config.seed,
        "n0": config.n,
        "quota": config.quota,
        "trace_events": len(trace.events),
        "trace_fingerprint": fingerprint,
        "applied_through": stop_at,
        "completed": completed,
        "final_n": service.n,
        "final_mode": service.mode,
        "matching_sha": _matching_sha(service),
        "sat_total": service.total_satisfaction(),
        "blocking_edges": final_diff.blocking_edges if final_diff else 0,
        "matches_fresh_solve": (
            final_diff.matches_fresh_solve if final_diff else False
        ),
        "differential_checks": len(differentials),
        "differential_ok": all(d.ok for d in differentials),
        "oracle_violations": sum(len(d.oracle_violations) for d in differentials),
        # machine-dependent tail (excluded from canonical comparisons)
        "elapsed_ms": elapsed * 1000.0,
        "mean_repair_ms": mean_repair * 1000.0,
        "mean_full_solve_ms": mean_full * 1000.0,
        "events_per_s": (stop_at - start_seq) / elapsed if elapsed > 0 else 0.0,
        "speedup_vs_full_x": (mean_full / mean_repair) if mean_repair > 0 else 0.0,
    }
    report.update(service.counters)
    return ServiceRunResult(
        report=report, service=service, differentials=differentials
    )


def kill_and_resume_check(
    config: ServiceConfig,
    workdir: "str | Path | None" = None,
    kill_frac: float = 0.6,
) -> dict:
    """Assert crash consistency: killed + resumed ≡ uninterrupted.

    Runs the trace three ways — uninterrupted, killed at
    ``kill_frac·events`` (losing everything past the last periodic
    checkpoint), and resumed — then compares the deterministic subset
    (:func:`repro.telemetry.sink.canonical_fields`) of the final
    reports byte for byte.
    """
    if not (0.0 < kill_frac < 1.0):
        raise ValueError(f"kill_frac must be in (0, 1), got {kill_frac}")

    def _check(td: Path) -> dict:
        base = run_service(config).report
        kill_after = max(1, int(config.events * kill_frac))
        run_service(config, checkpoint_dir=td, kill_after=kill_after)
        resumed_result = run_service(config, checkpoint_dir=td, resume=True)
        resumed = resumed_result.report
        # the differential sampler only sees the *replayed* suffix of a
        # resumed run, so its bookkeeping counts legitimately differ;
        # everything else deterministic must match byte for byte
        drop = ("differential_checks", "differential_ok", "oracle_violations")
        canon_base = canonical_fields(base, drop=drop)
        canon_resumed = canonical_fields(resumed, drop=drop)
        mismatches = sorted(
            k
            for k in set(canon_base) | set(canon_resumed)
            if canon_base.get(k) != canon_resumed.get(k)
        )
        return {
            "identical": json.dumps(canon_base, sort_keys=True)
            == json.dumps(canon_resumed, sort_keys=True),
            "kill_after": kill_after,
            "mismatches": mismatches,
            "guard_violations": resumed["guard_violations"],
            "differential_ok": bool(
                base["differential_ok"] and resumed["differential_ok"]
            ),
            "report": resumed,
        }

    if workdir is not None:
        return _check(Path(workdir))
    with tempfile.TemporaryDirectory(prefix="repro-service-") as td:
        return _check(Path(td))
