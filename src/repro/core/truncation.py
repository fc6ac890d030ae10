"""Round-truncated ("almost stable") LID: the shared truncation contract.

Floréen et al. ("Almost stable matchings in constant time") and
Ostrovsky–Rosenbaum ("Fast distributed almost stable matchings") show
that cutting a propose/accept protocol after ``k`` rounds leaves only a
vanishing fraction of blocking pairs.  This module defines the one
contract the three static LID engines — :func:`~repro.core.lid.run_lid`,
:func:`~repro.core.fast_lid.lid_matching_fast` and
:func:`~repro.core.resilient_lid.run_resilient_lid` — implement for
``max_rounds=k``:

- execute exactly ``k`` synchronous delivery waves (the unit-latency
  clock: wave ``r`` delivers the messages sent during wave ``r - 1``;
  the event-driven engines stop their simulator at
  :func:`round_horizon`, which admits every wave-``k`` delivery and
  none of wave ``k + 1``);
- stop, *dropping* the in-flight wave ``k + 1`` undelivered;
- extract only the **mutual** locks — a directed lock whose reverse
  direction never locked (the partner's confirming ``PROP`` was still
  in flight) is *released*, counted in
  :attr:`TruncationReport.released_locks`.

The extracted edge set is a feasible partial matching (locks never
exceed quota, and mutuality is enforced by construction), and it is
identical across the engines for any ``k``: the per-slot lock round
is determined by proposal *send* rounds, which are invariant under the
within-round reordering that distinguishes the engines' schedules
(the same Lemma 3–6 argument that makes the converged matching
schedule-invariant, applied at a round boundary).  The cross-engine
truncation conformance suite pins this empirically.

``max_rounds=None`` is the undisturbed protocol — every engine's output
stays byte-for-byte what it was before truncation existed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = [
    "TruncationReport",
    "finalize_truncation",
    "lic_baseline_satisfaction",
    "round_horizon",
    "validate_max_rounds",
]


@dataclass(frozen=True)
class TruncationReport:
    """What a (possibly) round-capped LID run did and what it cost.

    The structural fields (``max_rounds`` / ``rounds`` / ``converged`` /
    ``released_locks``) are filled by every engine from its own run
    state.  The *quality* fields need the :class:`PreferenceSystem` the
    weights came from, so they stay ``None`` at the engine layer and are
    filled by :func:`finalize_truncation` (which
    :func:`repro.core.lid.solve_lid` calls for truncated runs).

    Attributes
    ----------
    max_rounds:
        The requested round budget (``None`` = run to convergence).
    rounds:
        Delivery waves actually executed — ``min(k, natural quiescence
        round)``.
    converged:
        Whether the run quiesced *within* the budget (no pending
        deliveries when it stopped).  A converged truncated run equals
        the untruncated run bit for bit.
    released_locks:
        Directed one-sided locks dropped at extraction (the partner's
        confirming ``PROP`` was still in flight).  Always ``0`` when
        ``converged``.
    blocking_pairs:
        ``len(baselines.verify.blocking_pairs(ps, matching))`` — the
        rank-based almost-stability measure.  Monotone non-increasing in
        ``k`` (truncated matchings are nested: locks are permanent, so
        the round-``k`` edge set is a subset of round ``k+1``'s), but
        *not* 0 at convergence — LID is a Theorem-3 approximation, not a
        classically stable mechanism.
    weighted_blocking_pairs:
        ``baselines.verify.count_weighted_blocking_pairs`` — blocking
        under the eq.-9 total-order keys.  Exactly ``0`` at convergence
        (locally dominant selection leaves no weight-blocking pair), so
        this is the distance-to-fixpoint measure the CI gate pins.
    satisfaction:
        Full eq.-1 satisfaction of the truncated matching.
    satisfaction_ratio:
        ``satisfaction`` over the converged (LIC) matching's
        satisfaction — the fraction of the protocol's final quality
        already secured after ``k`` rounds (``1.0`` at convergence).
    """

    max_rounds: Optional[int]
    rounds: int
    converged: bool
    released_locks: int
    blocking_pairs: Optional[int] = None
    weighted_blocking_pairs: Optional[int] = None
    satisfaction: Optional[float] = None
    satisfaction_ratio: Optional[float] = None


def validate_max_rounds(max_rounds) -> Optional[int]:
    """Normalise a ``max_rounds`` argument (``None`` or an int ``>= 0``).

    ``0`` is legal and yields the empty matching: no delivery wave runs,
    and locks only ever form on deliveries.
    """
    if max_rounds is None:
        return None
    if isinstance(max_rounds, bool) or not isinstance(max_rounds, int):
        raise ValueError(
            f"max_rounds must be None or a non-negative int, got {max_rounds!r}"
        )
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    return int(max_rounds)


def round_horizon(max_rounds: Optional[int]) -> Optional[float]:
    """Virtual-time horizon of an event-driven run truncated at ``max_rounds``.

    Under unit-latency channels wave ``r``'s deliveries land at virtual
    time ``r``, shifted by at most a few ULPs of FIFO tie-break skew (in
    the resilient runtime, ACK traffic sent in the same instant on the
    same channel pushes a datagram's delivery to ``nextafter`` times).
    The horizon therefore sits at the midpoint of the inter-wave gap:
    every wave-``k`` delivery is in, every wave-``(k + 1)`` delivery is
    out, and fault-free truncated runs of
    :func:`~repro.core.lid.run_lid` and
    :func:`~repro.core.resilient_lid.run_resilient_lid` lock the same
    edges as the fast engine's ``k``-wave run.  ``None`` (run to
    convergence) has no horizon.
    """
    return None if max_rounds is None else max_rounds + 0.5


def lic_baseline_satisfaction(ps) -> float:
    """Satisfaction of the converged matching, without running LID.

    By Lemmas 3–4 the converged LID matching *is* the LIC edge set, so
    the truncation baseline is one (cheap, vectorised) LIC solve — no
    second protocol simulation.
    """
    from repro.core.fast import FastInstance, lic_matching_fast

    fi = FastInstance.from_preference_system(ps)
    return float(lic_matching_fast(fi).total_satisfaction(ps))


def finalize_truncation(
    report: TruncationReport,
    ps,
    matching,
    wt=None,
    baseline_satisfaction: Optional[float] = None,
) -> TruncationReport:
    """Fill the quality fields of an engine-produced report.

    ``wt`` (the run's :class:`~repro.core.weights.WeightTable`) enables
    the weighted blocking-pair count; without it that field stays
    ``None``.  ``baseline_satisfaction`` lets callers that already
    solved LIC on the instance (the grid engine, benchmarks) skip the
    baseline solve.
    """
    from repro.baselines.verify import (
        count_blocking_pairs,
        count_weighted_blocking_pairs,
    )

    sat = float(matching.total_satisfaction(ps))
    if baseline_satisfaction is None:
        baseline_satisfaction = lic_baseline_satisfaction(ps)
    ratio = sat / baseline_satisfaction if baseline_satisfaction > 0 else 1.0
    return replace(
        report,
        blocking_pairs=count_blocking_pairs(ps, matching),
        weighted_blocking_pairs=(
            None if wt is None else count_weighted_blocking_pairs(ps, matching, wt)
        ),
        satisfaction=sat,
        satisfaction_ratio=ratio,
    )
