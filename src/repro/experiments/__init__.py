"""Experiment harness: instances, grids, ratios, reporting.

The benchmark files under ``benchmarks/`` are thin: they time the
algorithms with pytest-benchmark and delegate instance generation,
grid execution, metric computation and table printing to this package
so results stay consistent between tests, benches and EXPERIMENTS.md.
"""

from repro.experiments.aggregate import (
    GridIncompleteError,
    aggregate,
    collect_records,
    grid_status,
    render_report,
    summarise,
    write_report,
)
from repro.experiments.campaign import (
    CampaignCell,
    CampaignConfig,
    CampaignResult,
    effective_blocking_edges,
    run_campaign,
    run_cell,
)
from repro.experiments.grid import (
    GridRunResult,
    GridStore,
    StaleStoreError,
    run_grid,
    run_grid_cell,
)
from repro.experiments.gridspec import (
    ENGINES,
    PROFILES,
    FaultSpec,
    GridCell,
    GridSpec,
    engine_backend,
    load_spec,
)
from repro.experiments.instances import (
    FAMILIES,
    cyclic_roommates,
    family_instance,
    random_preference_instance,
    random_weighted_instance,
    topology_for_family,
)
from repro.experiments.ratios import satisfaction_ratio_record, weight_ratio_record
from repro.experiments.registry import EXPERIMENTS, Experiment, get_experiment
from repro.experiments.reporting import format_table, print_table, write_csv

__all__ = [
    "ENGINES",
    "PROFILES",
    "FaultSpec",
    "GridCell",
    "GridIncompleteError",
    "GridRunResult",
    "GridSpec",
    "GridStore",
    "StaleStoreError",
    "collect_records",
    "engine_backend",
    "grid_status",
    "load_spec",
    "render_report",
    "run_grid",
    "run_grid_cell",
    "summarise",
    "write_report",
    "CampaignCell",
    "CampaignConfig",
    "CampaignResult",
    "effective_blocking_edges",
    "run_campaign",
    "run_cell",
    "FAMILIES",
    "cyclic_roommates",
    "family_instance",
    "random_preference_instance",
    "random_weighted_instance",
    "topology_for_family",
    "satisfaction_ratio_record",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "weight_ratio_record",
    "format_table",
    "print_table",
    "write_csv",
    "aggregate",
]
