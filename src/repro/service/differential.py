"""Differential conformance harness for the matching service.

The service's incremental state is only trustworthy because we can
check it, at any moment, against a from-scratch authority:

1. compact the live overlay into a fresh
   :class:`~repro.core.preferences.PreferenceSystem`;
2. run the :mod:`repro.testing` oracles (quota, edge locality, mutual
   consistency) on the served matching;
3. rebuild eq.-9 weights from scratch and count
   :func:`~repro.core.analysis.weighted_blocking_edges`;
4. re-solve the instance with :func:`~repro.core.lid.solve_lid` and
   compare edge sets.

Every repair runs to its fixpoint, so the served matching must equal
the from-scratch LIC/LID matching *exactly* (uniqueness, Lemma 2), have
zero blocking edges and pass every oracle; any gap fails the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis import weighted_blocking_edges
from repro.core.lid import solve_lid
from repro.core.weights import satisfaction_weights
from repro.testing.oracles import (
    check_edge_locality,
    check_mutual_consistency,
    check_quota,
)

__all__ = ["DifferentialReport", "conformance_check"]


@dataclass
class DifferentialReport:
    """Outcome of one conformance check against the fresh solve."""

    n: int
    oracle_violations: list[str] = field(default_factory=list)
    blocking_edges: int = 0
    matches_fresh_solve: bool = True
    missing_edges: int = 0
    extra_edges: int = 0

    @property
    def ok(self) -> bool:
        """No oracle violation, the fresh solve's edge set and no blocking edge."""
        return (
            not self.oracle_violations
            and self.matches_fresh_solve
            and self.blocking_edges == 0
        )


def conformance_check(service) -> DifferentialReport:
    """Check a service's served state against a from-scratch solve.

    Expensive (full weight rebuild + full LID solve) — callers sample
    it, they do not run it per event.
    """
    if not service.n:
        # no peers, no instance to compact: nothing can be served wrong
        return DifferentialReport(n=0)
    ps, ids, index = service._compact_instance()
    report = DifferentialReport(n=len(ids))
    matching = service._matching_compact(index)
    for oracle in (check_quota, check_edge_locality, check_mutual_consistency):
        oracle_report = oracle(ps, matching)
        report.oracle_violations.extend(str(v) for v in oracle_report.violations)
    wt = satisfaction_weights(ps)
    report.blocking_edges = len(
        weighted_blocking_edges(wt, list(ps.quotas), matching)
    )
    fresh, _ = solve_lid(ps, backend="fast")
    served = matching.edge_set()
    authority = fresh.matching.edge_set()
    report.missing_edges = len(authority - served)
    report.extra_edges = len(served - authority)
    report.matches_fresh_solve = served == authority
    return report
