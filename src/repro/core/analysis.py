"""Certificates and ratio computations for the paper's guarantees.

The test-suite and benchmark harness never *trust* an algorithm's
output: every claimed property is re-checked by an independent
certifier from this module.

- :func:`greedy_certificate` — the final-state characterisation of
  Lemmas 4/6: an edge was correctly left unselected iff some endpoint
  filled its quota with strictly heavier edges.  Equivalently, the
  matching admits no *weighted blocking edge*; this is also exactly
  stability with respect to the weight lists, which is why the induced
  b-matching "always converges regardless of the original problem"
  (Section 5).
- :func:`approximation_ratio` and the bound constants of Theorems 1–3.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.matching import Matching
from repro.core.weights import WeightTable

__all__ = [
    "weighted_blocking_edges",
    "greedy_certificate",
    "approximation_ratio",
    "theorem1_bound",
    "theorem2_bound",
    "theorem3_bound",
    "jain_fairness",
    "gini_coefficient",
]

Edge = tuple[int, int]

# above every edge key (w, i, j), whose weight w is finite
_TAKES_NOTHING = (math.inf,)


def _check_sizes(wt: WeightTable, quotas: Sequence[int], matching: Matching) -> None:
    """Raise :class:`ValueError` unless ``quotas`` and ``matching`` span ``wt.n`` nodes."""
    if matching.n != wt.n:
        raise ValueError(f"matching over {matching.n} nodes, weight table has {wt.n}")
    if len(quotas) != wt.n:
        raise ValueError(f"{len(quotas)} quotas for a weight table over {wt.n} nodes")


def weighted_blocking_edges(
    wt: WeightTable, quotas: Sequence[int], matching: Matching
) -> list[Edge]:
    """Edges that *block* the matching with respect to edge keys.

    An unmatched edge ``(i, j)`` blocks when both endpoints would take
    it: endpoint ``v`` takes it if ``v`` has residual quota, or its
    lightest matched edge has a smaller key than ``(i, j)``.  A greedy
    (LIC/LID) output has no blocking edges — this is the checkable form
    of Lemma 4 / Lemma 6.  Each full node's lightest key is computed
    once, so a candidate edge costs two comparisons.  Edges come in
    ``wt.edges()`` order.  Raises :class:`ValueError` when ``quotas`` or
    ``matching`` span another number of nodes than ``wt``.
    """
    _check_sizes(wt, quotas, matching)
    # per node: None with spare quota (takes any edge), else the key an
    # edge must beat (_TAKES_NOTHING for a quota-0 node)
    floor: list = [None] * wt.n
    for v in range(wt.n):
        conns = matching.connections(v)
        if len(conns) >= quotas[v]:
            floor[v] = min((wt.key(v, c) for c in conns), default=_TAKES_NOTHING)
    out = []
    for i, j in wt.edges():
        if matching.has_edge(i, j):
            continue
        k = wt.key(i, j)
        fi, fj = floor[i], floor[j]
        if (fi is None or k > fi) and (fj is None or k > fj):
            out.append((i, j))
    return out


def greedy_certificate(
    wt: WeightTable, quotas: Sequence[int], matching: Matching
) -> bool:
    """Whether ``matching`` is a fixpoint of locally-heaviest selection.

    True iff the matching is feasible w.r.t. ``quotas`` and has no
    weighted blocking edge.  Every LIC/LID output must pass; the
    certificate is also *sufficient* for the ½ weight bound (the
    standard charging argument of Theorem 2 only uses this property).
    Raises :class:`ValueError` when ``quotas`` or ``matching`` span
    another number of nodes than ``wt``.
    """
    _check_sizes(wt, quotas, matching)
    for v in range(wt.n):
        if matching.degree(v) > quotas[v]:
            return False
    for i, j in matching.edges():
        if not wt.has_edge(i, j):
            return False
    return not weighted_blocking_edges(wt, quotas, matching)


def approximation_ratio(achieved: float, optimum: float) -> float:
    """``achieved / optimum`` with the 0/0 convention of a perfect score.

    Used for both weight ratios (vs. the exact max-weight b-matching)
    and satisfaction ratios (vs. the exact maximising-satisfaction
    b-matching).
    """
    if optimum == 0.0:
        return 1.0
    return achieved / optimum


def theorem1_bound(b_max: int) -> float:
    """Theorem 1: ``½ (1 + 1/b_max)`` — modified vs. original objective."""
    if b_max < 1:
        raise ValueError(f"b_max must be >= 1, got {b_max}")
    return 0.5 * (1.0 + 1.0 / b_max)


def theorem2_bound() -> float:
    """Theorem 2: ``½`` — LIC/LID weight vs. optimal matching weight."""
    return 0.5


def theorem3_bound(b_max: int) -> float:
    """Theorem 3: ``¼ (1 + 1/b_max)`` — LID satisfaction vs. optimum."""
    if b_max < 1:
        raise ValueError(f"b_max must be >= 1, got {b_max}")
    return 0.25 * (1.0 + 1.0 / b_max)


def jain_fairness(values) -> float:
    """Jain's fairness index of a non-negative allocation.

    ``(Σx)² / (n · Σx²) ∈ [1/n, 1]``; 1 means perfectly even.  Used by
    the distribution experiments to compare how evenly the algorithms
    spread satisfaction — relevant to the paper's future-work question
    of *individual* satisfaction guarantees (§7).
    """
    import numpy as np

    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        return 1.0
    if (x < -1e-12).any():
        raise ValueError("fairness indices need non-negative values")
    denom = float((x**2).sum())
    if denom == 0.0:
        return 1.0
    return float(x.sum() ** 2 / (x.size * denom))


def gini_coefficient(values) -> float:
    """Gini coefficient of a non-negative allocation (0 = perfectly even)."""
    import numpy as np

    x = np.sort(np.asarray(list(values), dtype=float))
    if x.size == 0 or x.sum() == 0.0:
        return 0.0
    if (x < -1e-12).any():
        raise ValueError("fairness indices need non-negative values")
    n = x.size
    cum = np.cumsum(x)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)
