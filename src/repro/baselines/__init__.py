"""Baselines and exact comparators for the paper's experiments.

- :mod:`repro.baselines.exact` — the true optima (MILP / gadget / brute
  force) that approximation ratios are measured against,
- :mod:`repro.baselines.greedy` — random-order greedy (the weight-blind
  control of F1),
- :mod:`repro.baselines.acyclic` — best-response dynamics (Gai et al.),
- :mod:`repro.baselines.stable_fixtures` — certified stable-fixtures
  hybrid solver (Irving & Scott),
- :mod:`repro.baselines.random_matching` — random maximal b-matching,
- :mod:`repro.baselines.verify` — blocking-pair / stability certifiers.
"""

from repro.baselines.acyclic import BestResponseResult, best_response_dynamics
from repro.baselines.exact import (
    brute_force_bmatching,
    max_satisfaction_bmatching_milp,
    max_weight_bmatching_gadget,
    max_weight_bmatching_milp,
    optimal_satisfaction,
    optimal_weight,
)
from repro.baselines.local_search import LocalSearchResult, local_search_bmatching
from repro.baselines.greedy import random_order_greedy
from repro.baselines.random_matching import random_bmatching
from repro.baselines.stable_roommates import StableRoommatesResult, stable_roommates
from repro.baselines.stable_fixtures import (
    Phase1State,
    StableFixturesResult,
    phase1,
    stable_fixtures_matching,
)
from repro.baselines.verify import (
    blocking_pairs,
    check_matching,
    count_blocking_pairs,
    is_stable,
    stability_report,
)

__all__ = [
    "BestResponseResult",
    "best_response_dynamics",
    "brute_force_bmatching",
    "max_satisfaction_bmatching_milp",
    "max_weight_bmatching_gadget",
    "max_weight_bmatching_milp",
    "optimal_satisfaction",
    "optimal_weight",
    "LocalSearchResult",
    "local_search_bmatching",
    "random_order_greedy",
    "random_bmatching",
    "StableRoommatesResult",
    "stable_roommates",
    "Phase1State",
    "StableFixturesResult",
    "phase1",
    "stable_fixtures_matching",
    "blocking_pairs",
    "check_matching",
    "stability_report",
    "count_blocking_pairs",
    "is_stable",
]
