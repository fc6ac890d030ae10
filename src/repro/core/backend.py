"""Execution-backend selector: ``"reference"`` / ``"fast"``.

The library keeps interchangeable execution paths for the paper's
pipeline (eq.-9 weights → LIC edge selection → satisfaction scoring):

- ``reference`` — the readable scalar implementations
  (:func:`repro.core.weights.satisfaction_weights`,
  :func:`repro.core.lic.lic_matching`,
  :meth:`repro.core.matching.Matching.satisfaction_vector`),
- ``fast`` — the array-backed kernels of :mod:`repro.core.fast`
  (:class:`~repro.core.fast.FastInstance`,
  :func:`~repro.core.fast.lic_matching_fast`,
  :func:`~repro.core.fast.satisfaction_profile_fast`) plus the
  round-batched LID engine of :mod:`repro.core.fast_lid`.

Both produce the same results — bit-identical weights and identical
edge sets (see ``docs/performance.md``) — so callers pick purely on
instance size.  :func:`get_backend` is the one switch threaded through
:func:`repro.core.lic.solve_modified_bmatching`, the grid engines of
:mod:`repro.experiments.grid` and the ``python -m repro`` CLI.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.fast import (
    FastInstance,
    lic_matching_fast,
    satisfaction_profile_fast,
    satisfaction_weights_fast,
)
from repro.core.fast_lid import FastLidResult, lid_matching_fast
from repro.core.lic import lic_matching
from repro.core.lid import LidResult, run_lid
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem
from repro.core.weights import WeightTable, satisfaction_weights

__all__ = [
    "Backend",
    "BACKENDS",
    "get_backend",
    "resolve_backend_name",
]


class Backend:
    """One execution path of the weights → LIC → satisfaction pipeline.

    Subclasses provide the four pipeline stages; algorithms take a
    backend (or a backend *name*) and stay agnostic of which path runs.
    """

    name: str = "abstract"

    def build_weights(self, ps: PreferenceSystem) -> WeightTable:
        """Eq.-9 weight table of a preference system."""
        raise NotImplementedError

    def lic(self, wt: WeightTable, quotas: Sequence[int]) -> Matching:
        """Algorithm 2 on an explicit weight table."""
        raise NotImplementedError

    def lid(
        self,
        wt: WeightTable,
        quotas: Sequence[int],
        seed: int = 0,
        telemetry=None,
        probe=None,
        max_rounds: "int | None" = None,
    ) -> "LidResult | FastLidResult":
        """Algorithm 1 (default channels) on an explicit weight table.

        Both backends execute the faithful reliable-FIFO-unit-latency
        schedule: ``reference`` event by event through the simulator,
        ``fast`` via the round-batched engine — identical matching and
        message statistics (``seed`` only varies channel randomness,
        which the default channels do not have).  ``telemetry`` /
        ``probe`` (see :mod:`repro.telemetry`) are honoured by both
        paths, and a probed trajectory is bit-identical between them.
        ``max_rounds`` runs the round-truncated almost-stable variant
        under the shared contract of :mod:`repro.core.truncation` —
        the identical feasible partial matching on every backend.
        """
        raise NotImplementedError

    def solve(self, ps: PreferenceSystem) -> Matching:
        """End-to-end: eq.-9 weights + LIC, returning only the matching."""
        raise NotImplementedError

    def satisfaction_profile(
        self, ps: PreferenceSystem, matching: Matching, kind: str = "full"
    ) -> np.ndarray:
        """Per-node eq.-1 / eq.-6 satisfaction of a matching."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"Backend({self.name!r})"


class ReferenceBackend(Backend):
    """The scalar reference path (readable, O(per-edge Python))."""

    name = "reference"

    def build_weights(self, ps: PreferenceSystem) -> WeightTable:
        return satisfaction_weights(ps)

    def lic(self, wt: WeightTable, quotas: Sequence[int]) -> Matching:
        return lic_matching(wt, quotas)

    def lid(
        self,
        wt: WeightTable,
        quotas: Sequence[int],
        seed: int = 0,
        telemetry=None,
        probe=None,
        max_rounds: "int | None" = None,
    ) -> LidResult:
        return run_lid(wt, quotas, seed=seed, telemetry=telemetry, probe=probe,
                       max_rounds=max_rounds)

    def solve(self, ps: PreferenceSystem) -> Matching:
        return lic_matching(satisfaction_weights(ps), ps.quotas)

    def satisfaction_profile(
        self, ps: PreferenceSystem, matching: Matching, kind: str = "full"
    ) -> np.ndarray:
        return np.asarray(matching.satisfaction_vector(ps, kind), dtype=np.float64)


class FastBackend(Backend):
    """The array-backed path (NumPy lowering, vectorised kernels)."""

    name = "fast"

    def build_weights(self, ps: PreferenceSystem) -> WeightTable:
        return satisfaction_weights_fast(ps)

    def lic(self, wt: WeightTable, quotas: Sequence[int]) -> Matching:
        return lic_matching_fast(wt, quotas)

    def lid(
        self,
        wt: WeightTable,
        quotas: Sequence[int],
        seed: int = 0,
        telemetry=None,
        probe=None,
        max_rounds: "int | None" = None,
    ) -> FastLidResult:
        return lid_matching_fast(wt, quotas, telemetry=telemetry, probe=probe,
                                 max_rounds=max_rounds)

    def solve(self, ps: PreferenceSystem) -> Matching:
        return lic_matching_fast(FastInstance.from_preference_system(ps))

    def satisfaction_profile(
        self, ps: PreferenceSystem, matching: Matching, kind: str = "full"
    ) -> np.ndarray:
        return satisfaction_profile_fast(ps, matching, kind)


BACKENDS: dict[str, Backend] = {
    be.name: be for be in (ReferenceBackend(), FastBackend())
}


def resolve_backend_name(name: "str | Backend") -> str:
    """Validate a backend name (or instance) and return the canonical name.

    String names are case/whitespace-insensitive so values arriving from
    CLI flags or environment variables resolve without ceremony.
    """
    if isinstance(name, Backend):
        return name.name
    if not isinstance(name, str):
        raise TypeError(f"backend must be a name or Backend, got {type(name).__name__}")
    canonical = name.strip().lower()
    if canonical not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    return canonical


def get_backend(name: "str | Backend" = "reference") -> Backend:
    """Look up a backend by name; passing a :class:`Backend` is a no-op."""
    if isinstance(name, Backend):
        return name
    return BACKENDS[resolve_backend_name(name)]
