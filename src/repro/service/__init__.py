"""Long-lived matching service: incremental repair under churn (§7).

Every other pipeline in this repo solves one static instance and exits;
the paper's setting is an *overlay*, where peers join, leave, crash and
change preferences continuously.  This package keeps a b-matching alive
through that churn:

- :mod:`repro.service.events` — deterministic seeded workload traces
  (Poisson arrivals, flash crowds, diurnal load, adversarial join/leave
  storms built on :mod:`repro.distsim.failures` schedules) whose
  joiners take the run's quota;
- :mod:`repro.service.service` — :class:`MatchingService`, the
  long-lived engine: per churn event it recomputes only the affected
  region (:func:`~repro.overlay.churn.greedy_repair` warm-started from
  the surviving matching and run to its fixpoint, weights served from
  the incremental :class:`~repro.overlay.churn.WeightCache`), so every
  served matching is the LIC matching; it falls back to a full re-solve
  only when an invariant trips;
- :mod:`repro.service.guards` — runtime invariant guards (the
  partner-set rule the repair also runs over its region: capacity,
  liveness, adjacency and symmetry; and eq.-9 weight consistency) that
  demote the service to a degraded full-re-solve mode instead of
  serving a corrupt matching;
- :mod:`repro.service.checkpoint` — crash-consistent versioned
  snapshots of the peers, adjacency, counters and ladder position at
  an event cursor: a killed service validates them, re-derives its
  ranked lists, weight cache and matching (an LIC solve of the
  restored instance) and replays to a state bit-identical to an
  uninterrupted run;
- :mod:`repro.service.differential` — the conformance harness checking
  every repaired state against a from-scratch
  :func:`~repro.core.lid.solve_lid` on the same live instance;
- :mod:`repro.service.runner` — drive a service through a trace with
  checkpointing, differential sampling and the kill-and-resume
  bit-identity check behind ``python -m repro serve --smoke``.  Trace
  replay through :meth:`MatchingService.apply` is how the CLI and the
  grid apply churn: ``repro serve``, the grid's ``lid-service`` cells
  and the end-to-end service workloads all run it.
"""

from repro.service.checkpoint import (
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.differential import DifferentialReport, conformance_check
from repro.service.events import (
    WORKLOADS,
    ChurnEvent,
    WorkloadTrace,
    diurnal_trace,
    flash_crowd_trace,
    make_trace,
    poisson_trace,
    storm_trace,
)
from repro.service.guards import GuardReport, ServiceGuard
from repro.service.runner import (
    ServiceConfig,
    ServiceRunResult,
    build_service,
    kill_and_resume_check,
    run_service,
)
from repro.service.service import EventOutcome, MatchingService, ServiceCorruption

__all__ = [
    "ChurnEvent",
    "CheckpointError",
    "DifferentialReport",
    "EventOutcome",
    "GuardReport",
    "MatchingService",
    "ServiceConfig",
    "ServiceCorruption",
    "ServiceGuard",
    "ServiceRunResult",
    "WORKLOADS",
    "WorkloadTrace",
    "build_service",
    "conformance_check",
    "diurnal_trace",
    "flash_crowd_trace",
    "kill_and_resume_check",
    "latest_checkpoint",
    "load_checkpoint",
    "make_trace",
    "poisson_trace",
    "run_service",
    "storm_trace",
    "write_checkpoint",
]
