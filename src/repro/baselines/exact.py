"""Exact solvers — the OPT the paper's ratios are measured against.

The paper's theorems compare against optima whose existence is argued
but never computed.  To *measure* approximation ratios (experiments T1,
T2, F3) we need the true optima:

- :func:`max_weight_bmatching_milp` — exact many-to-many maximum weight
  matching (simple b-matching) as a 0/1 integer program solved by
  HiGHS through :func:`scipy.optimize.milp`.  The b-matching polytope
  is not integral in general (odd-cycle configurations), so an LP
  relaxation would not do; binary integrality is required.
- :func:`max_satisfaction_bmatching_milp` — exact *maximising
  satisfaction* b-matching (the paper's original objective, eq. 1,
  including the execution-dependent dynamic term).  The objective
  decomposes as ``w(M) + Σ_i g_i(c_i)`` where ``g_i(c) =
  c(c-1)/(2 b_i ℓ_i)`` depends only on the connection *count* ``c_i``;
  the count term is linearised exactly with one-hot count-selector
  binaries ``z_{i,c}``.
- :func:`max_weight_bmatching_gadget` — an independent exact method:
  the classical node-splitting reduction of simple b-matching to 1–1
  maximum weight matching (solved with networkx's blossom
  implementation).  It only cross-checks the MILP on small instances;
  pure-Python blossom is too slow beyond that.
- :func:`brute_force_bmatching` — exhaustive search over edge subsets
  for tiny instances; the ground truth both exact methods are tested
  against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np
import networkx as nx
from scipy import sparse
from scipy.optimize import LinearConstraint, milp

from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable, satisfaction_weights

__all__ = [
    "max_weight_bmatching_milp",
    "max_satisfaction_bmatching_milp",
    "max_weight_bmatching_gadget",
    "brute_force_bmatching",
    "optimal_weight",
    "optimal_satisfaction",
]

Edge = tuple[int, int]


def _degree_constraints(
    edges: Sequence[Edge], n: int, n_extra: int = 0
) -> sparse.csc_matrix:
    """Sparse node-incidence matrix A with A[v, e] = 1 iff v ∈ e."""
    rows, cols = [], []
    for idx, (i, j) in enumerate(edges):
        rows.extend((i, j))
        cols.extend((idx, idx))
    data = np.ones(len(rows))
    return sparse.csc_matrix(
        (data, (rows, cols)), shape=(n, len(edges) + n_extra)
    )


def max_weight_bmatching_milp(wt: WeightTable, quotas: Sequence[int]) -> Matching:
    """Exact maximum-weight simple b-matching via 0/1 integer programming.

    maximise    Σ_e w_e x_e
    subject to  Σ_{e ∋ v} x_e ≤ b_v   for every node v
                x_e ∈ {0, 1}
    """
    edges = list(wt.edges())
    n = wt.n
    if not edges:
        return Matching(n)
    w = np.array([wt.weight(i, j) for i, j in edges])
    A = _degree_constraints(edges, n)
    constraint = LinearConstraint(A, lb=0, ub=np.asarray(quotas, dtype=float))
    res = milp(
        c=-w,  # milp minimises
        constraints=[constraint],
        integrality=np.ones(len(edges)),
        bounds=(0, 1),
    )
    if not res.success:  # pragma: no cover - HiGHS is reliable on these
        raise RuntimeError(f"MILP failed: {res.message}")
    chosen = [e for e, x in zip(edges, res.x) if x > 0.5]
    return Matching(n, chosen)


def max_satisfaction_bmatching_milp(ps: PreferenceSystem) -> Matching:
    """Exact maximising-satisfaction b-matching (the paper's eq.-1 objective).

    Uses the decomposition ``Σ_i S_i = w(M) + Σ_i g_i(c_i)`` with
    ``w`` the eq.-9 weights and ``g_i(c) = c(c-1)/(2 b_i ℓ_i)``; the
    count term is encoded with one-hot binaries ``z_{i,c}``:

    - ``Σ_c z_{i,c} = 1``
    - ``Σ_c c · z_{i,c} - Σ_{e ∋ i} x_e = 0``
    - objective ``+ Σ_{i,c} g_i(c) z_{i,c}``

    The quota constraint is implicit in ``c ≤ b_i`` of the selector.
    """
    wt = satisfaction_weights(ps)
    edges = list(wt.edges())
    n = ps.n
    m = len(edges)
    if m == 0:
        return Matching(n)

    # variable layout: x_e (m), then z_{i,c} blocks
    z_offsets: list[int] = []
    z_counts: list[int] = []
    pos = m
    for i in range(n):
        z_offsets.append(pos)
        z_counts.append(ps.quota(i) + 1)  # c ∈ 0..b_i
        pos += ps.quota(i) + 1
    nvar = pos

    obj = np.zeros(nvar)
    for idx, (i, j) in enumerate(edges):
        obj[idx] = wt.weight(i, j)
    for i in range(n):
        b, ell = ps.quota(i), ps.list_length(i)
        for c in range(z_counts[i]):
            g = c * (c - 1) / (2.0 * b * ell) if b else 0.0
            obj[z_offsets[i] + c] = g

    rows, cols, data, lbs, ubs = [], [], [], [], []
    row = 0
    # one-hot: Σ_c z_{i,c} = 1
    for i in range(n):
        for c in range(z_counts[i]):
            rows.append(row)
            cols.append(z_offsets[i] + c)
            data.append(1.0)
        lbs.append(1.0)
        ubs.append(1.0)
        row += 1
    # count link: Σ_c c z_{i,c} - Σ_{e∋i} x_e = 0
    incident: list[list[int]] = [[] for _ in range(n)]
    for idx, (i, j) in enumerate(edges):
        incident[i].append(idx)
        incident[j].append(idx)
    for i in range(n):
        for c in range(z_counts[i]):
            if c:
                rows.append(row)
                cols.append(z_offsets[i] + c)
                data.append(float(c))
        for idx in incident[i]:
            rows.append(row)
            cols.append(idx)
            data.append(-1.0)
        lbs.append(0.0)
        ubs.append(0.0)
        row += 1

    A = sparse.csc_matrix((data, (rows, cols)), shape=(row, nvar))
    res = milp(
        c=-obj,
        constraints=[LinearConstraint(A, lb=np.array(lbs), ub=np.array(ubs))],
        integrality=np.ones(nvar),
        bounds=(0, 1),
    )
    if not res.success:  # pragma: no cover
        raise RuntimeError(f"MILP failed: {res.message}")
    chosen = [e for e, x in zip(edges, res.x[:m]) if x > 0.5]
    matching = Matching(n, chosen)
    matching.validate(ps)
    return matching


def max_weight_bmatching_gadget(wt: WeightTable, quotas: Sequence[int]) -> Matching:
    """Exact b-matching via node-splitting reduction to 1–1 matching.

    For each node ``v`` create copies ``v_1..v_{b_v}``; for each edge
    ``e = (i, j)`` of weight ``w_e`` create gadget vertices ``u_e, v_e``
    with edges::

        i_k — u_e   (weight w_e, all copies k)
        u_e — v_e   (weight w_e)
        v_e — j_l   (weight w_e, all copies l)

    In a maximum-weight matching of the gadget graph each edge gadget
    contributes ``w_e`` if unused (via ``u_e—v_e``) and ``2 w_e`` if used
    (both outer edges), so the optimum equals ``Σ_e w_e + OPT_bmatching``.
    Edge ``e`` is read off as used when *both* outer sides are matched.
    The 1–1 gadget graph is solved by :func:`networkx.max_weight_matching`.
    """
    n = wt.n
    # build the gadget over integer-labelled nodes
    labels: dict = {}

    def nid(label) -> int:
        if label not in labels:
            labels[label] = len(labels)
        return labels[label]

    gadget_edges: list[tuple[int, int, float]] = []
    for v in range(n):
        for k in range(int(quotas[v])):
            nid(("copy", v, k))
    for i, j in wt.edges():
        w = wt.weight(i, j)
        ue, ve = nid(("gadget_u", i, j)), nid(("gadget_v", i, j))
        gadget_edges.append((ue, ve, w))
        for k in range(int(quotas[i])):
            gadget_edges.append((nid(("copy", i, k)), ue, w))
        for l in range(int(quotas[j])):
            gadget_edges.append((ve, nid(("copy", j, l)), w))

    copy_ids = {labels[lab] for lab in labels if lab[0] == "copy"}
    G = nx.Graph()
    G.add_nodes_from(range(len(labels)))
    for a, b, w in gadget_edges:
        G.add_edge(a, b, weight=w)
    mate = [-1] * len(labels)
    for a, b in nx.max_weight_matching(G, maxcardinality=False):
        mate[a] = b
        mate[b] = a

    chosen = []
    for i, j in wt.edges():
        ue, ve = labels[("gadget_u", i, j)], labels[("gadget_v", i, j)]
        used_u = mate[ue] in copy_ids
        used_v = mate[ve] in copy_ids
        if used_u and used_v:
            chosen.append((i, j))
    return Matching(n, chosen)


def brute_force_bmatching(
    wt: WeightTable,
    quotas: Sequence[int],
    objective: Optional[Callable[[Matching], float]] = None,
    max_edges: int = 18,
) -> tuple[Matching, float]:
    """Exhaustive search over all feasible edge subsets (tiny instances).

    Returns ``(best_matching, best_value)``.  ``objective`` defaults to
    total weight; pass e.g. ``lambda M: M.total_satisfaction(ps)`` for
    the satisfaction objective.  Refuses instances with more than
    ``max_edges`` edges.
    """
    edges = list(wt.edges())
    if len(edges) > max_edges:
        raise ValueError(
            f"brute force limited to {max_edges} edges, instance has {len(edges)}"
        )
    if objective is None:
        objective = lambda M: M.total_weight(wt)  # noqa: E731

    n = wt.n
    best: tuple[float, Matching] = (-np.inf, Matching(n))
    for r in range(len(edges) + 1):
        for subset in combinations(edges, r):
            deg = [0] * n
            ok = True
            for i, j in subset:
                deg[i] += 1
                deg[j] += 1
                if deg[i] > quotas[i] or deg[j] > quotas[j]:
                    ok = False
                    break
            if not ok:
                continue
            matching = Matching(n, subset)
            val = objective(matching)
            if val > best[0]:
                best = (val, matching)
    return best[1], best[0]


def optimal_weight(wt: WeightTable, quotas: Sequence[int]) -> float:
    """Weight of the exact maximum-weight b-matching."""
    return max_weight_bmatching_milp(wt, quotas).total_weight(wt)


def optimal_satisfaction(ps: PreferenceSystem) -> float:
    """Total satisfaction of the exact maximising-satisfaction b-matching."""
    return max_satisfaction_bmatching_milp(ps).total_satisfaction(ps)
