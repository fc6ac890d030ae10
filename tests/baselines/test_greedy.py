"""Tests for the random-order greedy baseline."""

import numpy as np
from hypothesis import given, settings

from repro.baselines.greedy import random_order_greedy
from repro.core.weights import WeightTable

from repro.testing.strategies import weighted_instances


class TestRandomOrderGreedy:
    def test_feasible_and_maximal(self):
        wt = WeightTable({(0, 1): 1.0, (1, 2): 2.0, (0, 2): 3.0}, 3)
        rng = np.random.default_rng(0)
        m = random_order_greedy(wt, [1, 1, 1], rng)
        assert m.size() == 1  # triangle with quota 1: any single edge is maximal

    def test_deterministic_given_rng(self):
        wt = WeightTable({(i, j): 1.0 + i + j for i in range(6) for j in range(i + 1, 6)}, 6)
        a = random_order_greedy(wt, [2] * 6, np.random.default_rng(5))
        b = random_order_greedy(wt, [2] * 6, np.random.default_rng(5))
        assert a.edge_set() == b.edge_set()

    @settings(max_examples=20, deadline=None)
    @given(weighted_instances())
    def test_respects_quotas(self, inst):
        wt, quotas = inst
        m = random_order_greedy(wt, quotas, np.random.default_rng(1))
        for v in range(wt.n):
            assert m.degree(v) <= quotas[v]

