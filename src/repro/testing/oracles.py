"""Structured matching verifiers — the repo's single source of truth.

Every check re-derives its property from first principles (the paper's
equations, computed here with :class:`fractions.Fraction` where floats
could hide an error) instead of trusting library code, and reports
**typed violation records** rather than booleans, so a failing
conformance run says *what* broke, *where*, and by *how much*:

- :func:`check_quota` — feasibility ``c_i ≤ b_i`` (and ``b_i`` itself
  within ``|L_i|``);
- :func:`check_edge_locality` — every matched edge is a potential
  connection ``(i, j) ∈ E``;
- :func:`check_mutual_consistency` — the connection relation is
  symmetric (``j ∈ C_i ⇔ i ∈ C_j``), including raw per-node lock sets
  from distributed runs;
- :func:`check_satisfaction` — recomputes eq. 1 / eq. 6 per node in
  exact rational arithmetic and confirms both the matching's own
  accounting and the telescoping identity with eq. 4 (summing
  ``ΔS_i^j`` over the ordered connection list reproduces ``S_i``);
- :func:`check_symmetric_weights` — every eq.-9 weight equals
  ``ΔS̄_i^j + ΔS̄_j^i`` (exact rational reference) and the table is
  symmetric with a strict total order;
- :func:`check_theorem1_bound` / :func:`check_theorem3_bound` — the
  ``½(1+1/b_max)`` and ``¼(1+1/b_max)`` guarantees against the exact
  optima of :mod:`repro.baselines.exact` (small instances only — MILP).

A matching over another node count than the instance (or lock sets
keyed by a node outside it) is one typed violation of each structural
check, which then checks nothing further; the other per-matching
checks skip it.  :func:`verify_matching` composes the per-matching
checks into one :class:`OracleReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable

__all__ = [
    "Violation",
    "OracleReport",
    "check_quota",
    "check_edge_locality",
    "check_mutual_consistency",
    "check_satisfaction",
    "check_symmetric_weights",
    "check_theorem1_bound",
    "check_theorem3_bound",
    "verify_matching",
]

# relative tolerance for float-vs-exact comparisons: the float pipeline
# accumulates a handful of rounding steps, the rational reference none
REL_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant, pinned to the entity that broke it.

    Attributes
    ----------
    check:
        Which oracle found it (``quota``, ``edge-locality``, ...).
    subject:
        The node id, edge pair, or global scope the violation is about.
    message:
        Human-readable account with the observed and expected values.
    observed, expected:
        The numeric discrepancy when one exists (``None`` otherwise) —
        minimisation and reports sort on the gap.
    """

    check: str
    subject: object
    message: str
    observed: Optional[float] = None
    expected: Optional[float] = None

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.check}] {self.subject}: {self.message}"


@dataclass
class OracleReport:
    """Outcome of a verification pass: all violations, grouped on demand."""

    violations: list[Violation] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every executed check passed."""
        return not self.violations

    def by_check(self) -> dict[str, list[Violation]]:
        """Violations grouped by the oracle that raised them."""
        out: dict[str, list[Violation]] = {}
        for v in self.violations:
            out.setdefault(v.check, []).append(v)
        return out

    def extend(self, other: "OracleReport") -> "OracleReport":
        """Merge another report into this one (returns self)."""
        self.violations.extend(other.violations)
        self.checks_run.extend(
            c for c in other.checks_run if c not in self.checks_run
        )
        return self

    def summary(self) -> str:
        """One line per check: pass/fail with violation counts."""
        grouped = self.by_check()
        parts = []
        for check in self.checks_run:
            n = len(grouped.get(check, []))
            parts.append(f"{check}: {'ok' if n == 0 else f'{n} violation(s)'}")
        return "; ".join(parts) if parts else "no checks run"


def _adjacency(
    ps: PreferenceSystem,
    matching: "Matching | Sequence[Iterable[int]] | Mapping[int, Iterable[int]]",
) -> list[set[int]]:
    """Normalise a matching-like object to per-node partner sets."""
    if isinstance(matching, Matching):
        return [set(matching.connections(i)) for i in range(matching.n)]
    if isinstance(matching, Mapping):
        return [set(matching.get(i, ())) for i in range(ps.n)]
    return [set(conns) for conns in matching]


def _off_instance(ps: PreferenceSystem, matching, check: str) -> list[Violation]:
    """The one violation of a matching-like object over other nodes than ``ps``'s.

    The per-node checks index ``ps`` with the matching's node ids, so
    they run only when this is empty.  A mapping of raw lock sets may
    omit nodes, but holds no key outside ``range(ps.n)``.
    """
    if isinstance(matching, Mapping):
        stray = sorted(k for k in matching if not 0 <= k < ps.n)
        if not stray:
            return []
        return [Violation(
            check=check, subject=stray[0],
            message=f"lock sets keyed by nodes {stray}, outside the instance's {ps.n} nodes",
        )]
    n = matching.n if isinstance(matching, Matching) else len(matching)
    if n == ps.n:
        return []
    return [Violation(
        check=check, subject="*",
        message=f"matching spans {n} nodes but the instance has {ps.n}",
        observed=float(n), expected=float(ps.n),
    )]


def check_quota(ps: PreferenceSystem, matching) -> OracleReport:
    """Feasibility: ``c_i ≤ b_i`` for every node (eq. 2's constraint)."""
    report = OracleReport(violations=_off_instance(ps, matching, "quota"), checks_run=["quota"])
    if report.violations:
        return report
    adj = _adjacency(ps, matching)
    for i, conns in enumerate(adj):
        b = ps.quota(i)
        if len(conns) > b:
            report.violations.append(Violation(
                check="quota", subject=i,
                message=f"node {i} holds {len(conns)} connections, quota b_{i}={b}",
                observed=float(len(conns)), expected=float(b),
            ))
    return report


def check_edge_locality(ps: PreferenceSystem, matching) -> OracleReport:
    """Locality: every matched edge is a potential connection of ``E``."""
    report = OracleReport(
        violations=_off_instance(ps, matching, "edge-locality"), checks_run=["edge-locality"]
    )
    if report.violations:
        return report
    adj = _adjacency(ps, matching)
    for i, conns in enumerate(adj):
        for j in conns:
            if not (0 <= j < ps.n) or not ps.has_edge(i, j):
                report.violations.append(Violation(
                    check="edge-locality", subject=(min(i, j), max(i, j)),
                    message=f"matched edge ({i},{j}) is not in E",
                ))
    return report


def check_mutual_consistency(ps: PreferenceSystem, matching) -> OracleReport:
    """Symmetry: ``j ∈ C_i ⇔ i ∈ C_j`` (no one-sided locks)."""
    report = OracleReport(
        violations=_off_instance(ps, matching, "mutual-consistency"),
        checks_run=["mutual-consistency"],
    )
    if report.violations:
        return report
    adj = _adjacency(ps, matching)
    for i, conns in enumerate(adj):
        for j in conns:
            if not (0 <= j < len(adj)) or i not in adj[j]:
                report.violations.append(Violation(
                    check="mutual-consistency", subject=(i, j),
                    message=f"node {i} is connected to {j} but not vice versa",
                ))
    return report


def _exact_full_satisfaction(ps: PreferenceSystem, i: int, conns: set[int]) -> Fraction:
    """Eq. 1 in exact rationals (independent of repro.core.satisfaction)."""
    b, ell, c = ps.quota(i), ps.list_length(i), len(conns)
    if b == 0:
        return Fraction(0)
    rank_sum = sum(ps.rank(i, j) for j in conns)
    return (
        Fraction(c, b)
        + Fraction(c * (c - 1), 2 * b * ell)
        - Fraction(rank_sum, b * ell)
    )


def _exact_static_satisfaction(ps: PreferenceSystem, i: int, conns: set[int]) -> Fraction:
    """Eq. 6 in exact rationals."""
    b, ell, c = ps.quota(i), ps.list_length(i), len(conns)
    if b == 0:
        return Fraction(0)
    rank_sum = sum(ps.rank(i, j) for j in conns)
    return Fraction(c, b) - Fraction(rank_sum, b * ell)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_satisfaction(
    ps: PreferenceSystem,
    matching,
    profile: Optional[Sequence[float]] = None,
    kind: str = "full",
) -> OracleReport:
    """Recompute per-node satisfaction (eq. 1 / eq. 6) in exact arithmetic.

    Confirms three things per node: the claimed ``profile`` (when given,
    e.g. a backend's ``satisfaction_profile``) matches the exact value;
    the library's own eq.-1 accounting
    (:func:`repro.core.satisfaction.full_satisfaction`) matches; and,
    for ``kind="full"``, the eq.-4 telescoping identity — summing the
    library's ``ΔS_i^j`` increments over the ordered connection list
    (connection ranks ``Q_i = 0..c-1``) lands on eq. 1.
    """
    from repro.core.satisfaction import delta_full, full_satisfaction, static_satisfaction

    report = OracleReport(checks_run=["satisfaction"])
    if _off_instance(ps, matching, "satisfaction"):
        return report  # reported by the structural checks; S_i is undefined
    adj = _adjacency(ps, matching)
    exact_fn = {"full": _exact_full_satisfaction, "static": _exact_static_satisfaction}[kind]
    library_fn = {"full": full_satisfaction, "static": static_satisfaction}[kind]
    for i, conns in enumerate(adj):
        if len(conns) > ps.quota(i):
            continue  # reported by check_quota; eq. 1 is undefined here
        if any(not ps.has_edge(i, j) for j in conns):
            continue  # reported by check_edge_locality; rank is undefined
        exact = exact_fn(ps, i, conns)
        if profile is not None and not _close(float(profile[i]), float(exact)):
            report.violations.append(Violation(
                check="satisfaction", subject=i,
                message=f"claimed S_{i}={float(profile[i]):.12g} but eq. {'1' if kind == 'full' else '6'} "
                        f"gives {float(exact):.12g}",
                observed=float(profile[i]), expected=float(exact),
            ))
        library = library_fn(ps, i, conns)
        if not _close(library, float(exact)):
            report.violations.append(Violation(
                check="satisfaction", subject=i,
                message=f"library scores S_{i}={library:.12g} but the exact "
                        f"rational recomputation gives {float(exact):.12g}",
                observed=library, expected=float(exact),
            ))
        if kind == "full" and ps.quota(i) > 0:
            # eq. 4 telescope over C_i in preference order (Q_i(j) = index)
            ordered = sorted(conns, key=lambda j: ps.rank(i, j))
            telescoped = sum(
                delta_full(ps, i, j, q) for q, j in enumerate(ordered)
            )
            if not _close(telescoped, float(exact)):
                report.violations.append(Violation(
                    check="satisfaction", subject=i,
                    message=f"eq.-4 increments sum to {telescoped:.12g} "
                            f"but eq. 1 gives {float(exact):.12g}",
                    observed=telescoped, expected=float(exact),
                ))
    return report


def check_symmetric_weights(
    ps: PreferenceSystem, wt: WeightTable
) -> OracleReport:
    """Eq.-9 consistency: ``w(i,j) = ΔS̄_i^j + ΔS̄_j^i``, exact reference.

    Also asserts the table covers exactly ``E`` and that edge keys form
    a strict total order (the device the greedy algorithms rely on).
    """
    report = OracleReport(checks_run=["symmetric-weights"])
    table_edges = set(wt.edges())
    ps_edges = set(ps.edges())
    for e in sorted(ps_edges - table_edges):
        report.violations.append(Violation(
            check="symmetric-weights", subject=e,
            message=f"potential connection {e} missing from the weight table",
        ))
    for e in sorted(table_edges - ps_edges):
        report.violations.append(Violation(
            check="symmetric-weights", subject=e,
            message=f"weight table contains {e} which is not in E",
        ))
    for i, j in sorted(table_edges & ps_edges):
        exact = (
            Fraction(ps.list_length(i) - ps.rank(i, j), ps.list_length(i) * ps.quota(i))
            + Fraction(ps.list_length(j) - ps.rank(j, i), ps.list_length(j) * ps.quota(j))
        )
        got = wt.weight(i, j)
        if not _close(got, float(exact)):
            report.violations.append(Violation(
                check="symmetric-weights", subject=(i, j),
                message=f"w({i},{j})={got:.12g} but eq. 9 gives {float(exact):.12g}",
                observed=got, expected=float(exact),
            ))
        if wt.weight(j, i) != got:  # symmetric lookup must agree
            report.violations.append(Violation(
                check="symmetric-weights", subject=(i, j),
                message=f"asymmetric lookup: w({i},{j})={got} != w({j},{i})={wt.weight(j, i)}",
            ))
    keys = [wt.key(i, j) for i, j in table_edges]
    if len(set(keys)) != len(keys):  # pragma: no cover - keys embed edge ids
        report.violations.append(Violation(
            check="symmetric-weights", subject="*",
            message="edge keys are not a strict total order (duplicate keys)",
        ))
    return report


def check_theorem1_bound(
    ps: PreferenceSystem, optimum: Optional[float] = None
) -> OracleReport:
    """Theorem 1: the exact max-weight matching under eq.-9 weights earns
    at least ``½(1+1/b_max)`` of the exact satisfaction optimum.

    Solves both MILPs (pass ``optimum`` to reuse a cached satisfaction
    optimum) — small instances only.
    """
    from repro.baselines.exact import (
        max_weight_bmatching_milp,
        optimal_satisfaction,
    )
    from repro.core.analysis import theorem1_bound
    from repro.core.weights import satisfaction_weights

    report = OracleReport(checks_run=["theorem1-bound"])
    wt = satisfaction_weights(ps)
    weight_opt = max_weight_bmatching_milp(wt, ps.quotas)
    achieved = weight_opt.total_satisfaction(ps)
    opt = optimal_satisfaction(ps) if optimum is None else float(optimum)
    bound = theorem1_bound(ps.b_max)
    if achieved + REL_TOL * max(1.0, opt) < bound * opt:
        report.violations.append(Violation(
            check="theorem1-bound", subject="*",
            message=f"weight-optimal matching earns {achieved:.12g} satisfaction, "
                    f"below {bound:.4g} x OPT={opt:.12g}",
            observed=achieved, expected=bound * opt,
        ))
    return report


def check_theorem3_bound(
    ps: PreferenceSystem, matching, optimum: Optional[float] = None
) -> OracleReport:
    """Theorem 3: a LIC/LID output earns ≥ ``¼(1+1/b_max)`` of optimum."""
    from repro.baselines.exact import optimal_satisfaction
    from repro.core.analysis import theorem3_bound

    report = OracleReport(checks_run=["theorem3-bound"])
    if _off_instance(ps, matching, "theorem3-bound"):
        return report  # reported by the structural checks
    adj = _adjacency(ps, matching)
    achieved = float(sum(
        _exact_full_satisfaction(ps, i, conns)
        for i, conns in enumerate(adj)
        if len(conns) <= ps.quota(i)
    ))
    opt = optimal_satisfaction(ps) if optimum is None else float(optimum)
    bound = theorem3_bound(ps.b_max)
    if achieved + REL_TOL * max(1.0, opt) < bound * opt:
        report.violations.append(Violation(
            check="theorem3-bound", subject="*",
            message=f"greedy matching earns {achieved:.12g} satisfaction, "
                    f"below {bound:.4g} x OPT={opt:.12g}",
            observed=achieved, expected=bound * opt,
        ))
    return report


def verify_matching(
    ps: PreferenceSystem,
    matching,
    wt: Optional[WeightTable] = None,
    profile: Optional[Sequence[float]] = None,
    bounds: bool = False,
) -> OracleReport:
    """Run the full oracle battery against one matching.

    Parameters
    ----------
    matching:
        A :class:`Matching`, a per-node partner-set sequence, or a
        mapping node → partners (raw lock sets from distributed runs).
    wt:
        When given, also check eq.-9 consistency of the weight table.
    profile:
        When given, also check a backend's claimed per-node satisfaction
        against the exact recomputation.
    bounds:
        When ``True``, additionally solve the exact optima and check the
        Theorem 1 and Theorem 3 guarantees (MILP — keep instances small).
    """
    report = OracleReport()
    report.extend(check_quota(ps, matching))
    report.extend(check_edge_locality(ps, matching))
    report.extend(check_mutual_consistency(ps, matching))
    report.extend(check_satisfaction(ps, matching, profile=profile))
    if wt is not None:
        report.extend(check_symmetric_weights(ps, wt))
    if bounds:
        from repro.baselines.exact import optimal_satisfaction

        opt = optimal_satisfaction(ps)
        report.extend(check_theorem1_bound(ps, optimum=opt))
        report.extend(check_theorem3_bound(ps, matching, optimum=opt))
    return report
