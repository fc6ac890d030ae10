"""Greedy baseline: random-order maximal b-matching.

:func:`random_order_greedy` builds a maximal feasible matching in a
uniformly random edge order: it keeps the "maximal" structure but
ignores weights, so the gap to LIC isolates the value of
weight-ordering.  The weight-ordered global greedy needs no separate
baseline — it is exactly LIC's sorted-scan execution
(:func:`repro.core.lic.lic_matching`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.matching import Matching
from repro.core.weights import WeightTable

__all__ = ["random_order_greedy"]


def random_order_greedy(
    wt: WeightTable, quotas: Sequence[int], rng: np.random.Generator
) -> Matching:
    """Maximal feasible b-matching built in uniformly random edge order.

    Ignores weights entirely; serves as the weight-blind control in the
    satisfaction-distribution experiment (F1).
    """
    n = wt.n
    edges = list(wt.edges())
    order = rng.permutation(len(edges))
    residual = [int(q) for q in quotas]
    matching = Matching(n)
    for idx in order:
        a, b = edges[idx]
        if residual[a] > 0 and residual[b] > 0:
            matching.add(a, b)
            residual[a] -= 1
            residual[b] -= 1
    return matching
