"""Structural tests for the topology generators (networkx as oracle)."""

import tracemalloc

import numpy as np
import pytest

from repro.overlay.topology import (
    Topology,
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    grid_2d,
    random_geometric,
    random_regular,
    watts_strogatz,
)
from repro.overlay.topology import _pairs_within


def _check_simple_symmetric(topo: Topology):
    seen = set()
    for i, neigh in enumerate(topo.adjacency):
        assert len(set(neigh)) == len(neigh), "duplicate neighbour"
        assert i not in neigh, "self loop"
        assert neigh == sorted(neigh)
        for j in neigh:
            assert i in topo.adjacency[j], "asymmetric"
            seen.add((min(i, j), max(i, j)))
    assert len(seen) == topo.m


class TestErdosRenyi:
    def test_structure(self):
        topo = erdos_renyi(50, 0.2, np.random.default_rng(0))
        _check_simple_symmetric(topo)
        assert topo.n == 50

    def test_edge_count_near_expectation(self):
        n, p = 100, 0.1
        counts = [
            erdos_renyi(n, p, np.random.default_rng(s)).m for s in range(5)
        ]
        expected = p * n * (n - 1) / 2
        assert expected * 0.7 < np.mean(counts) < expected * 1.3

    def test_extremes(self):
        assert erdos_renyi(10, 0.0, np.random.default_rng(0)).m == 0
        assert erdos_renyi(10, 1.0, np.random.default_rng(0)).m == 45

    def test_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi(0, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, np.random.default_rng(0))


class TestRandomGeometric:
    def test_structure_and_positions(self):
        topo = random_geometric(40, 0.3, np.random.default_rng(1))
        _check_simple_symmetric(topo)
        assert topo.positions.shape == (40, 2)
        # every edge within radius, every in-radius pair an edge
        for i in range(topo.n):
            for j in range(i + 1, topo.n):
                d = np.linalg.norm(topo.positions[i] - topo.positions[j])
                assert (j in topo.adjacency[i]) == (d <= 0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_geometric(10, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="radius"):
            random_geometric(50, float("nan"), np.random.default_rng(0))

    def test_infinite_radius_is_complete(self):
        topo = random_geometric(30, float("inf"), np.random.default_rng(0))
        assert topo.adjacency == complete_graph(30).adjacency

    @pytest.mark.parametrize(
        "n, radii",
        [
            (1, (0.05, 0.25)),
            (2, (0.05, 0.25, 1.5)),
            (50, (0.05, 0.25, 1.0, 1e-9)),
            (500, (0.05, 0.25, 0.1)),
            (3000, (0.05, 0.25)),
        ],
    )
    def test_cell_list_equals_dense_reference(self, n, radii):
        # exact reciprocals like 0.05 and 0.25 put cell walls exactly one
        # radius apart, where binning without a margin could split a pair
        family = (8.0 / (np.pi * n)) ** 0.5 * 1.8
        for radius in radii + (family,):
            for seed in range(1 if n == 3000 else 4):
                got = random_geometric(n, radius, np.random.default_rng(seed))
                pos, want = _dense_geometric(n, radius, np.random.default_rng(seed))
                assert np.array_equal(got.positions, pos)
                assert got.adjacency == want, (n, radius, seed)

    def test_binning_margin_keeps_boundary_pairs(self):
        # 0.5 - 0.24999999999999997 rounds to exactly 0.25; cells of side
        # 0.25 would put the two points two cells apart
        pos = np.array(
            [[0.24999999999999997, 0.5], [0.5, 0.5]]
            + [[0.05 * k, 0.95] for k in range(14)]
        )
        i, j = _pairs_within(pos, 0.25)
        assert (0, 1) in set(zip(i.tolist(), j.tolist()))

    def test_large_build_needs_no_quadratic_memory(self):
        # the n x n distance matrix alone would take 3 GiB at n = 20,000
        n = 20_000
        tracemalloc.start()
        try:
            radius = (8.0 / (np.pi * n)) ** 0.5 * 1.8
            topo = random_geometric(n, radius, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert topo.n == n and topo.m > 200_000
        assert peak < 128 * 2**20


def _dense_geometric(n, radius, rng):
    """The O(n²) reference: every pair's distance, in row blocks."""
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    adjacency = []
    for lo in range(0, n, 500):
        diff = pos[lo:lo + 500, None, :] - pos[None, :, :]
        close = np.sqrt((diff**2).sum(axis=2)) <= radius
        for k, row in enumerate(close, start=lo):
            row[k] = False
            adjacency.append(np.flatnonzero(row).tolist())
    return pos, adjacency


class TestBarabasiAlbert:
    def test_structure_and_edge_count(self):
        n, m_attach = 60, 3
        topo = barabasi_albert(n, m_attach, np.random.default_rng(2))
        _check_simple_symmetric(topo)
        clique = m_attach * (m_attach + 1) // 2
        assert topo.m == clique + (n - m_attach - 1) * m_attach

    def test_heavy_tail(self):
        topo = barabasi_albert(300, 2, np.random.default_rng(3))
        degrees = sorted((topo.degree(i) for i in range(topo.n)), reverse=True)
        assert degrees[0] > 4 * np.median(degrees)  # hubs exist

    def test_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            barabasi_albert(5, 0, np.random.default_rng(0))


class TestWattsStrogatz:
    def test_no_rewiring_is_ring_lattice(self):
        topo = watts_strogatz(20, 4, 0.0, np.random.default_rng(0))
        _check_simple_symmetric(topo)
        assert all(topo.degree(i) == 4 for i in range(20))
        assert topo.m == 40

    def test_rewiring_preserves_edge_count(self):
        topo = watts_strogatz(30, 6, 0.5, np.random.default_rng(1))
        _check_simple_symmetric(topo)
        assert topo.m == 90

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1, rng)  # odd k
        with pytest.raises(ValueError):
            watts_strogatz(4, 4, 0.1, rng)  # k >= n


class TestRandomRegular:
    @pytest.mark.parametrize("n,d", [(10, 3), (20, 4), (15, 2)])
    def test_regularity(self, n, d):
        topo = random_regular(n, d, np.random.default_rng(4))
        _check_simple_symmetric(topo)
        assert all(topo.degree(i) == d for i in range(n))

    def test_parity_validation(self):
        with pytest.raises(ValueError, match="even"):
            random_regular(5, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_regular(4, 4, np.random.default_rng(0))


class TestGrid:
    def test_open_grid(self):
        topo = grid_2d(3, 4)
        _check_simple_symmetric(topo)
        assert topo.n == 12
        assert topo.m == 3 * 3 + 2 * 4  # horizontal + vertical
        assert topo.positions is not None

    def test_torus_degrees(self):
        topo = grid_2d(4, 5, periodic=True)
        _check_simple_symmetric(topo)
        assert all(topo.degree(i) == 4 for i in range(topo.n))

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_2d(0, 3)


class TestComplete:
    def test_kn(self):
        topo = complete_graph(7)
        _check_simple_symmetric(topo)
        assert topo.m == 21
        assert all(topo.degree(i) == 6 for i in range(7))


class TestNetworkxOracle:
    def test_er_matches_networkx_statistics(self):
        """Degree distribution sanity against the networkx implementation."""
        import networkx as nx

        n, p = 80, 0.15
        ours = [
            np.mean([erdos_renyi(n, p, np.random.default_rng(s)).degree(i)
                     for i in range(n)])
            for s in range(4)
        ]
        theirs = [
            np.mean([d for _, d in nx.gnp_random_graph(n, p, seed=s).degree()])
            for s in range(4)
        ]
        assert abs(np.mean(ours) - np.mean(theirs)) < 1.5
