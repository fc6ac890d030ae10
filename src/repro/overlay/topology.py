"""Overlay topology generators (potential-connection graphs).

The overlay graph ``G(V, E)`` of the paper is the *knowledge* graph:
which peers know of each other and could connect.  The experiments
exercise the classic families — each implemented here directly (seeded,
deterministic, simple graphs); the test-suite cross-checks structural
invariants (degree sums, simplicity, expected edge counts) against
networkx as an oracle.

All generators return a :class:`Topology`: adjacency lists (sorted,
symmetric) plus optional node positions for the geometric families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Topology",
    "erdos_renyi",
    "random_geometric",
    "barabasi_albert",
    "watts_strogatz",
    "random_regular",
    "grid_2d",
    "complete_graph",
]


@dataclass
class Topology:
    """A generated overlay graph.

    Attributes
    ----------
    adjacency:
        ``adjacency[i]`` — sorted neighbour ids of node ``i``.
    positions:
        Optional ``(n, 2)`` coordinates (geometric families); consumed by
        distance metrics and by peers' ``position`` attributes.
    name:
        Family label used in experiment reports.
    """

    adjacency: list[list[int]]
    positions: Optional[np.ndarray] = None
    name: str = ""

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.adjacency)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list."""
        return [(i, j) for i in range(self.n) for j in self.adjacency[i] if i < j]

    def degree(self, i: int) -> int:
        """Degree of node ``i``."""
        return len(self.adjacency[i])


def _from_edge_set(n: int, edges: set[tuple[int, int]], name: str, positions=None) -> Topology:
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    for lst in adjacency:
        lst.sort()
    return Topology(adjacency, positions, name)


# Above this many candidate pairs the dense G(n, p) sampler would
# materialise multi-GB index arrays; switch to the sparse sampler.
_ER_DENSE_PAIR_LIMIT = 30_000_000


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Topology:
    """G(n, p): every pair is an edge independently with probability p.

    Small graphs sample all ``n(n-1)/2`` Bernoulli draws in one shot
    (the draw stream — and hence every seeded instance used by the
    tests and benchmarks — is unchanged).  Past
    ``_ER_DENSE_PAIR_LIMIT`` candidate pairs that would allocate
    tens of gigabytes, so large sparse graphs use the exact two-step
    equivalent instead: draw ``|E| ~ Binomial(n(n-1)/2, p)``, then a
    uniform ``|E|``-subset of distinct pairs (G(n, p) conditioned on
    its edge count is uniform over subsets of that size).  The sparse
    path consumes a different RNG stream, so the two regimes produce
    different — but equally distributed — instances for a given seed.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0,1], got {p}")
    total_pairs = n * (n - 1) // 2
    if total_pairs <= _ER_DENSE_PAIR_LIMIT:
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < p
        edges = {(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])}
        return _from_edge_set(n, edges, f"er(n={n},p={p})")
    m = int(rng.binomial(total_pairs, p))
    codes = np.empty(0, dtype=np.int64)
    while codes.shape[0] < m:
        # Oversample ordered pairs, keep i < j, dedupe; repeat until we
        # have at least m distinct pairs (one pass suffices when m is
        # far below total_pairs, the only regime this path serves).
        need = m - codes.shape[0]
        draw = max(1024, int(2.3 * need))
        a = rng.integers(0, n, size=draw, dtype=np.int64)
        b = rng.integers(0, n, size=draw, dtype=np.int64)
        keep = a < b
        codes = np.unique(np.concatenate([codes, a[keep] * n + b[keep]]))
    if codes.shape[0] > m:
        codes = rng.choice(codes, size=m, replace=False)
    edges = {(int(c // n), int(c % n)) for c in codes}
    return _from_edge_set(n, edges, f"er(n={n},p={p})")


def random_geometric(n: int, radius: float, rng: np.random.Generator) -> Topology:
    """Random geometric graph in the unit square: connect pairs within ``radius``.

    The canonical model for locality-driven overlays; pairs naturally
    with :class:`~repro.overlay.metrics.DistanceMetric`.  A pair is an
    edge when ``sqrt(((p_i - p_j)**2).sum()) <= radius``; a cell list
    compares only pairs in the same or adjacent cells, so time and
    memory grow with ``n`` plus the edge count, not ``n²``.  An infinite
    radius gives the complete graph.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    i, j = _pairs_within(pos, radius)
    return _from_pairs(n, i, j, f"geo(n={n},r={radius})", positions=pos)


def _pairs_within(pos: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Each pair of unit-square points with
    ``sqrt(((pos[i] - pos[j])**2).sum()) <= radius``, once, by cell list."""
    # cells of side >= radius·(1 + 1e-9): the margin keeps rounding in the
    # binning from putting a within-radius pair into non-adjacent cells;
    # at most ~n cells, so a tiny radius cannot blow up the grid
    cells = int(max(1.0, min(1.0 / (radius * (1.0 + 1e-9)), math.isqrt(len(pos)))))
    cx, cy = np.minimum((pos * cells).astype(np.int64), cells - 1).T
    cell = cx * cells + cy
    order = np.argsort(cell)
    count = np.bincount(cell, minlength=cells * cells)
    first = np.cumsum(count) - count
    src, dst = [], []
    # the cell itself and the four neighbours that see each cell pair once
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        nx, ny = cx + dx, cy + dy
        i = np.flatnonzero((nx < cells) & (ny >= 0) & (ny < cells))
        other = nx[i] * cells + ny[i]
        # every point i against every point of its neighbouring cell
        size = count[other]
        i = np.repeat(i, size)
        within = np.arange(len(i)) - np.repeat(np.cumsum(size) - size, size)
        j = order[np.repeat(first[other], size) + within]
        if dx == dy == 0:
            keep = i < j
            i, j = i[keep], j[keep]
        close = np.sqrt(((pos[i] - pos[j]) ** 2).sum(axis=1)) <= radius
        src.append(i[close])
        dst.append(j[close])
    return np.concatenate(src), np.concatenate(dst)


def _from_pairs(n: int, i: np.ndarray, j: np.ndarray, name: str, positions=None) -> Topology:
    """:func:`_from_edge_set` for index arrays naming each edge once."""
    a = np.concatenate([i, j])
    b = np.concatenate([j, i])
    order = np.lexsort((b, a))
    flat = b[order].tolist()
    ends = np.cumsum(np.bincount(a, minlength=n)).tolist()
    adjacency = [flat[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
    return Topology(adjacency, positions, name)


def barabasi_albert(n: int, m_attach: int, rng: np.random.Generator) -> Topology:
    """Preferential attachment: each new node attaches to ``m_attach`` others.

    Uses the standard repeated-endpoint sampling (attachment probability
    proportional to degree), seeded with an ``m_attach``-clique.
    Produces the heavy-tailed degree distributions typical of organically
    grown overlays.
    """
    if m_attach < 1:
        raise ValueError(f"m_attach must be >= 1, got {m_attach}")
    if n <= m_attach:
        raise ValueError(f"need n > m_attach, got n={n}, m_attach={m_attach}")
    edges: set[tuple[int, int]] = set()
    targets_pool: list[int] = []  # node id repeated once per incident edge
    # seed clique over 0..m_attach
    for i in range(m_attach + 1):
        for j in range(i + 1, m_attach + 1):
            edges.add((i, j))
            targets_pool.extend((i, j))
    for v in range(m_attach + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m_attach:
            t = int(targets_pool[int(rng.integers(len(targets_pool)))])
            chosen.add(t)
        for t in chosen:
            edges.add((min(v, t), max(v, t)))
            targets_pool.extend((v, t))
    return _from_edge_set(n, edges, f"ba(n={n},m={m_attach})")


def watts_strogatz(n: int, k: int, beta: float, rng: np.random.Generator) -> Topology:
    """Small-world rewiring of a ring lattice (k nearest neighbours).

    ``k`` must be even and < n.  Each clockwise lattice edge is rewired
    to a uniform random endpoint with probability ``beta`` (avoiding
    self-loops and duplicates).
    """
    if k % 2 != 0 or not (0 < k < n):
        raise ValueError(f"need even 0 < k < n, got k={k}, n={n}")
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [0,1], got {beta}")
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for off in range(1, k // 2 + 1):
            j = (i + off) % n
            edges.add((min(i, j), max(i, j)))
    out = set(edges)
    for i, j in sorted(edges):
        if rng.random() < beta:
            # rewire the far endpoint
            for _ in range(4 * n):
                t = int(rng.integers(n))
                e = (min(i, t), max(i, t))
                if t != i and e not in out:
                    out.discard((i, j))
                    out.add(e)
                    break
    return _from_edge_set(n, out, f"ws(n={n},k={k},beta={beta})")


def random_regular(n: int, d: int, rng: np.random.Generator, max_tries: int = 50) -> Topology:
    """Random d-regular graph: configuration-model pairing + swap repair.

    A plain rejection-sampled pairing is almost never simple for
    ``d ≳ 4`` (the acceptance probability decays like
    ``exp(-(d²-1)/4)``), so self-loops and duplicate pairs are repaired
    with uniform double-edge swaps against good pairs — the standard
    technique; the result remains d-regular by construction.
    """
    if d < 1 or d >= n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs: list[tuple[int, int]] = [
            (int(a), int(b)) for a, b in stubs.reshape(-1, 2)
        ]
        edge_set: set[tuple[int, int]] = set()
        bad: list[int] = []
        for idx, (a, b) in enumerate(pairs):
            e = (min(a, b), max(a, b))
            if a == b or e in edge_set:
                bad.append(idx)
            else:
                edge_set.add(e)
        repaired = True
        for idx in bad:
            fixed = False
            for _attempt in range(200 * max(d, 2)):
                a, b = pairs[idx]
                k = int(rng.integers(len(pairs)))
                if k == idx or k in bad:
                    continue
                c, dd = pairs[k]
                e1 = (min(a, c), max(a, c))
                e2 = (min(b, dd), max(b, dd))
                old = (min(c, dd), max(c, dd))
                if a == c or b == dd or e1 in edge_set or e2 in edge_set or e1 == e2:
                    continue
                # perform the swap: (a,b),(c,d) -> (a,c),(b,d)
                edge_set.discard(old)
                edge_set.add(e1)
                edge_set.add(e2)
                pairs[idx] = (a, c)
                pairs[k] = (b, dd)
                fixed = True
                break
            if not fixed:
                repaired = False
                break
        if repaired and len(edge_set) == n * d // 2:
            return _from_edge_set(n, edge_set, f"reg(n={n},d={d})")
    raise RuntimeError(
        f"failed to build a simple {d}-regular graph in {max_tries} tries"
    )


def grid_2d(rows: int, cols: int, periodic: bool = False) -> Topology:
    """Rows × cols grid (optionally a torus) — the structured control case."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    n = rows * cols

    def nid(r: int, c: int) -> int:
        return r * cols + c

    edges: set[tuple[int, int]] = set()
    pos = np.zeros((n, 2))
    for r in range(rows):
        for c in range(cols):
            v = nid(r, c)
            pos[v] = (r / max(rows - 1, 1), c / max(cols - 1, 1))
            if c + 1 < cols:
                edges.add((v, nid(r, c + 1)))
            elif periodic and cols > 2:
                edges.add((min(v, nid(r, 0)), max(v, nid(r, 0))))
            if r + 1 < rows:
                edges.add((v, nid(r + 1, c)))
            elif periodic and rows > 2:
                edges.add((min(v, nid(0, c)), max(v, nid(0, c))))
    return _from_edge_set(n, edges, f"grid({rows}x{cols})", positions=pos)


def complete_graph(n: int) -> Topology:
    """K_n — everyone knows everyone (the stable-roommates classic setting)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    return _from_edge_set(n, edges, f"complete(n={n})")
