"""Independent certifiers for preference-based properties.

The weight-based certificates live in :mod:`repro.core.analysis`; this
module certifies properties stated in terms of the *original preference
lists* — most importantly b-matching **stability** (no blocking pair),
the solution concept of the stable fixtures problem the paper
generalises.

Structured verification (feasibility, locality, satisfaction
recomputation, eq.-9 consistency, theorem bounds) lives in
:mod:`repro.testing.oracles`; :func:`check_matching` and
:func:`stability_report` are the entry points here and return typed
:class:`~repro.testing.oracles.OracleReport` objects.

Definitions (Irving & Scott [7], Cechlárová & Fleiner [1]):
a pair ``(i, j) ∈ E \\ M`` *blocks* matching ``M`` when both endpoints
would rather have the edge, where node ``v`` would rather have ``(v,u)``
if it has spare quota (``c_v < b_v``) **or** it prefers ``u`` to at
least one current partner.
"""

from __future__ import annotations

from typing import Optional

from repro.core.analysis import weighted_blocking_edges
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable

__all__ = [
    "blocking_pairs",
    "is_stable",
    "count_blocking_pairs",
    "weighted_blocking_pairs",
    "count_weighted_blocking_pairs",
    "check_matching",
    "stability_report",
]

Edge = tuple[int, int]


def _would_accept(ps: PreferenceSystem, matching: Matching, v: int, u: int) -> bool:
    """Whether node ``v`` would (weakly) gain by adding partner ``u``."""
    conns = matching.connections(v)
    if len(conns) < ps.quota(v):
        return True
    r = ps.rank(v, u)
    return any(ps.rank(v, c) > r for c in conns)


def blocking_pairs(ps: PreferenceSystem, matching: Matching) -> list[Edge]:
    """All pairs blocking ``matching`` (empty iff stable).

    Node ``v`` accepts partner ``u`` iff it has spare quota or ranks
    ``u`` above its current worst partner, so both tests reduce to one
    comparison against hoisted per-node state (spare flag + worst held
    rank) instead of a partner-set scan per pair — the per-pair cost
    that used to dominate verification on large truncation sweeps.
    Raises :class:`ValueError` for a matching over another number of
    nodes.
    """
    if matching.n != ps.n:
        raise ValueError(f"matching over {matching.n} nodes, instance has {ps.n}")
    n = ps.n
    spare = [False] * n
    worst = [-1] * n  # max rank among current partners; -1 when unmatched
    for v in range(n):
        conns = matching.connections(v)
        if len(conns) < ps.quota(v):
            spare[v] = True
        if conns:
            worst[v] = max(ps.rank(v, c) for c in conns)
    out = []
    for i, j in ps.edges():
        if matching.has_edge(i, j):
            continue
        if (spare[i] or ps.rank(i, j) < worst[i]) and (
            spare[j] or ps.rank(j, i) < worst[j]
        ):
            out.append((i, j))
    return out


def count_blocking_pairs(ps: PreferenceSystem, matching: Matching) -> int:
    """Number of blocking pairs — the instability measure used in F4."""
    return len(blocking_pairs(ps, matching))


def weighted_blocking_pairs(
    ps: PreferenceSystem, matching: Matching, wt: WeightTable
) -> list[Edge]:
    """Pairs blocking ``matching`` under the eq.-9 weight order.

    A pair ``(i, j) ∈ E \\ M`` *weight-blocks* when both endpoints would
    strictly gain by the total-order edge key — spare quota, or
    ``key(v, u)`` above the lightest currently held edge.  Unlike the
    rank-based notion (under which converged LID is only *almost*
    stable, Theorem 3), the converged LID/LIC matching is exactly stable
    here: locally dominant selection leaves no weight-blocking pair, so
    this count is 0 iff a truncated run has reached the fixpoint — the
    measure the truncation CI gate pins at ``k=∞``.  The rule is
    :func:`repro.core.analysis.weighted_blocking_edges` with ``ps``'s
    quotas.
    """
    if wt.n != ps.n:
        raise ValueError(
            f"weight table sized for {wt.n} nodes but instance has {ps.n}"
        )
    return weighted_blocking_edges(wt, ps.quotas, matching)


def count_weighted_blocking_pairs(
    ps: PreferenceSystem, matching: Matching, wt: WeightTable
) -> int:
    """Number of weight-blocking pairs (0 iff at the LIC fixpoint)."""
    return len(weighted_blocking_pairs(ps, matching, wt))


def is_stable(ps: PreferenceSystem, matching: Matching) -> bool:
    """Whether ``matching`` is a stable b-matching for ``ps``.

    Feasibility is checked first (through the oracle layer); an
    infeasible matching is never considered stable.
    """
    return stability_report(ps, matching).ok


def check_matching(
    ps: PreferenceSystem,
    matching: Matching,
    wt: Optional[WeightTable] = None,
    bounds: bool = False,
):
    """Structured verification via :mod:`repro.testing.oracles`.

    Runs quota feasibility, edge locality, mutual consistency and the
    exact eq.-1/4 satisfaction recomputation (plus eq.-9 weight
    consistency when ``wt`` is given and the Theorem 1/3 bounds when
    ``bounds=True``), returning an
    :class:`~repro.testing.oracles.OracleReport` of typed violations.
    """
    from repro.testing.oracles import verify_matching as _verify

    return _verify(ps, matching, wt=wt, bounds=bounds)


def stability_report(ps: PreferenceSystem, matching: Matching):
    """Feasibility (oracle layer) plus blocking pairs, as typed records."""
    from repro.testing.oracles import (
        OracleReport,
        Violation,
        check_edge_locality,
        check_mutual_consistency,
        check_quota,
    )

    report = OracleReport()
    report.extend(check_quota(ps, matching))
    report.extend(check_edge_locality(ps, matching))
    report.extend(check_mutual_consistency(ps, matching))
    report.checks_run.append("stability")
    if matching.n != ps.n:
        return report  # the checks above report it; ranks are undefined
    for pair in blocking_pairs(ps, matching):
        report.violations.append(Violation(
            check="stability", subject=pair,
            message=f"pair {pair} blocks the matching",
        ))
    return report

