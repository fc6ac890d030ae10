"""Declarative parameter-grid specifications for large sweeps.

Every empirical claim in the repo — the Theorem 1/3 approximation
bounds, LID's message complexity, satisfaction under churn and faults —
is a point in an ``engine × graph family × n × b × churn × fault model
× seed`` grid.  A :class:`GridSpec` names one such grid declaratively
(as a frozen dataclass, or loaded from TOML) and is the unit of
content-addressing for the resumable result store in
:mod:`repro.experiments.grid`: the spec's canonical-JSON SHA-256 prefix
keys the on-disk store, so two runs of the same spec share completed
cells and a *changed* spec can never silently reuse stale ones.

Axes
----

- ``engines`` — which pipeline executes the cell: ``lic-reference`` /
  ``lic-fast`` (centralised Algorithm 2 on either backend),
  ``lid-reference`` / ``lid-fast`` (distributed Algorithm 1, simulator
  or round-batched engine), ``lid-truncated`` (round-budgeted LID),
  ``lid-service`` (the long-lived matching service under churn) or
  ``resilient`` (the fault-tolerant runtime).  The *instance* of a
  cell is seeded independently of the engine axis; with ``density`` or
  ``degree`` set, every engine sees the same instance.  ``lid-service``
  builds its overlay from the family alone, so a spec that sets either
  is rejected with it (see :class:`GridSpec`).
- ``families`` — named topology families (:data:`FAMILIES`).
- ``sizes`` / ``quotas`` — overlay size ``n`` and per-node quota ``b``.
- ``churn`` — the workload-trace length a ``lid-service`` cell replays
  through :class:`~repro.service.MatchingService` (``0`` = static
  instance, the value every other engine takes).
- ``faults`` — fault-model strings in a tiny DSL
  (:meth:`FaultSpec.parse`): ``"none"``, ``"loss=0.1"``,
  ``"loss=0.3+crash=0.05+partition+byz=0.1"`` …
- ``seeds`` — replications; the seed is the root of every cell RNG.
- ``max_rounds`` — LID round budgets swept by the ``lid-truncated``
  engine (the quality-vs-k curve of the shared truncation contract in
  :mod:`repro.core.truncation`); other engines skip the axis.

Not every coordinate combination is meaningful; :meth:`GridSpec.cells`
expands only the *compatible* subset under the documented rules:
faults run exclusively on the ``resilient`` engine (and the resilient
engine only on the ``er`` family, its instance model), and a cell has
churn exactly when its engine is the long-lived ``lid-service``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from repro.experiments.instances import FAMILIES

__all__ = [
    "ENGINES",
    "FaultSpec",
    "GridCell",
    "GridSpec",
    "PROFILES",
    "SERVICE_WORKLOADS",
    "engine_backend",
    "load_spec",
]

ENGINES = (
    "lic-reference",
    "lic-fast",
    "lid-reference",
    "lid-fast",
    "lid-service",
    "lid-truncated",
    "resilient",
)

#: engines that run the centralised (weights → LIC) pipeline
LIC_ENGINES = ("lic-reference", "lic-fast")
#: engines that run the distributed LID protocol
LID_ENGINES = ("lid-reference", "lid-fast")

#: workloads the lid-service engine accepts (mirrors
#: ``repro.service.events.WORKLOADS``; kept literal here so spec
#: validation never imports the service package — asserted equal in
#: tests/experiments/test_gridspec.py)
SERVICE_WORKLOADS = ("poisson", "flash", "diurnal", "storm")


def engine_backend(engine: str) -> str:
    """The ``reference``/``fast`` backend behind a static LIC/LID engine."""
    if engine not in LIC_ENGINES + LID_ENGINES:
        raise ValueError(f"engine {engine!r} has no reference/fast backend")
    return engine.split("-", 1)[1]


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault model: loss × crash × partition × Byzantine.

    The string DSL keeps grid specs declarative (and TOML-friendly):
    ``"none"`` is the clean model; otherwise ``+``-joined terms, each
    either ``partition`` or ``key=value`` with ``key`` one of ``loss``
    (message-drop probability), ``crash`` (crashed fraction) and
    ``byz`` (Byzantine fraction).
    """

    loss: float = 0.0
    crash: float = 0.0
    partition: bool = False
    byzantine: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.loss < 1.0):
            raise ValueError(f"loss rate {self.loss} outside [0, 1)")
        if not (0.0 <= self.crash <= 1.0):
            raise ValueError(f"crash fraction {self.crash} outside [0, 1]")
        if not (0.0 <= self.byzantine <= 0.5):
            raise ValueError(f"byzantine fraction {self.byzantine} outside [0, 0.5]")

    @property
    def is_clean(self) -> bool:
        return not (self.loss or self.crash or self.partition or self.byzantine)

    def label(self) -> str:
        """Canonical DSL string (fixed term order, shortest round-trip
        float ``repr`` so ``parse(label())`` restores exact values)."""
        if self.is_clean:
            return "none"
        parts = []
        if self.loss:
            parts.append(f"loss={self.loss!r}")
        if self.crash:
            parts.append(f"crash={self.crash!r}")
        if self.partition:
            parts.append("partition")
        if self.byzantine:
            parts.append(f"byz={self.byzantine!r}")
        return "+".join(parts)

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        """Parse the DSL; raises ``ValueError`` on unknown terms."""
        text = text.strip().lower()
        if text in ("", "none", "clean"):
            return FaultSpec()
        kwargs: dict = {}
        for term in text.split("+"):
            term = term.strip()
            if term == "partition":
                kwargs["partition"] = True
                continue
            key, sep, value = term.partition("=")
            if not sep:
                raise ValueError(
                    f"fault term {term!r} is neither 'partition' nor 'key=value'"
                )
            key = {"loss": "loss", "crash": "crash", "byz": "byzantine",
                   "byzantine": "byzantine"}.get(key.strip())
            if key is None:
                raise ValueError(
                    f"unknown fault key in {term!r}; known: loss, crash,"
                    " partition, byz"
                )
            if key in kwargs:
                raise ValueError(f"duplicate fault key in {text!r}")
            kwargs[key] = float(value)
        return FaultSpec(**kwargs)


@dataclass(frozen=True)
class GridCell:
    """One coordinate of an expanded grid (hashable, picklable)."""

    engine: str
    family: str
    n: int
    b: int
    churn: int
    fault: str
    seed: int
    #: round budget — set exactly for ``lid-truncated`` cells; ``None``
    #: everywhere else, keeping pre-truncation cell ids byte-stable
    max_rounds: Optional[int] = None

    @property
    def cell_id(self) -> str:
        """Deterministic, filename-safe cell identity."""
        fault = re.sub(r"[^0-9a-zA-Z]+", "", self.fault.replace("+", "-"))
        suffix = "" if self.max_rounds is None else f"_k{self.max_rounds}"
        return (
            f"{self.engine}_{self.family}_n{self.n}_b{self.b}"
            f"_c{self.churn}_{fault or 'none'}_s{self.seed}{suffix}"
        )

    def coords(self) -> dict:
        """The coordinate fields as a plain dict (record prefix)."""
        return {
            "engine": self.engine,
            "family": self.family,
            "n": self.n,
            "b": self.b,
            "churn": self.churn,
            "fault": self.fault,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
        }


def _astuple(value, cast) -> tuple:
    if isinstance(value, (str, bytes)):
        raise TypeError(f"expected a sequence of values, got {value!r}")
    return tuple(cast(v) for v in value)


@dataclass(frozen=True)
class GridSpec:
    """A declarative sweep: the cross product of the axes below.

    ``density`` (absolute ER edge probability) or ``degree`` (expected
    degree: ``p = degree / n``) switch instance generation to the plain
    Erdős–Rényi :func:`~repro.experiments.instances
    .random_preference_instance`; both require ``families == ("er",)``
    and are rejected with the ``lid-service`` engine, which builds its
    overlay from the family alone.  Every engine of such a spec sees
    the same instance per ``(n, b, seed)``.  Without either, static and
    truncated cells draw from
    :func:`~repro.experiments.instances.family_instance` (expected
    degree ≈ 8 across families), while resilient cells draw ER at
    density 0.15, so their instances differ from the other engines'.

    ``measure_ratio`` additionally solves the exact eq.-1 optimum per
    cell (MILP — small ``n`` only) and records the Theorem-3 ratio;
    ``verify`` cross-checks every LID cell's matching against LIC on
    the same instance (Lemmas 4/6).

    The ``heartbeat_interval`` / ``suspect_after`` / ``partition_start``
    / ``backoff`` knobs parameterise the resilient engine's failure
    detector, partition window (:meth:`partition_window`) and
    retransmission policy (``backoff`` is a
    :class:`~repro.distsim.reliable.BackoffPolicy` argument tuple).  A
    spec with the resilient engine is rejected when the retransmit
    budget's span is shorter than the partition window: revocations
    could then be abandoned before the heal (docs/robustness.md).
    """

    name: str
    engines: tuple[str, ...]
    families: tuple[str, ...] = ("er",)
    sizes: tuple[int, ...] = (30,)
    quotas: tuple[int, ...] = (2,)
    churn: tuple[int, ...] = (0,)
    faults: tuple[str, ...] = ("none",)
    seeds: tuple[int, ...] = (0,)
    #: round budgets swept by the ``lid-truncated`` engine (other
    #: engines ignore the axis); a "converged" row is spelled with a
    #: budget past every instance's quiescence round (e.g. ``1 << 30``)
    max_rounds: tuple[int, ...] = ()
    density: Optional[float] = None
    degree: Optional[float] = None
    measure_ratio: bool = False
    verify: bool = True
    heartbeat_interval: float = 1.0
    suspect_after: float = 5.0
    partition_start: float = 3.0
    backoff: Optional[tuple] = None
    service_workload: str = "poisson"
    service_differential_every: int = 50

    def __post_init__(self):
        # normalise axis containers to tuples so specs hash and pickle
        object.__setattr__(self, "engines", _astuple(self.engines, str))
        object.__setattr__(self, "families", _astuple(self.families, str))
        object.__setattr__(self, "sizes", _astuple(self.sizes, int))
        object.__setattr__(self, "quotas", _astuple(self.quotas, int))
        object.__setattr__(self, "churn", _astuple(self.churn, int))
        object.__setattr__(self, "seeds", _astuple(self.seeds, int))
        object.__setattr__(self, "max_rounds", _astuple(self.max_rounds, int))
        if self.backoff is not None:
            object.__setattr__(self, "backoff", tuple(self.backoff))
        # canonicalise fault strings through the DSL parser
        object.__setattr__(
            self,
            "faults",
            tuple(FaultSpec.parse(f).label() for f in self.faults),
        )
        if not self.name or not re.fullmatch(r"[0-9a-zA-Z._-]+", self.name):
            raise ValueError(
                f"spec name {self.name!r} must be a non-empty filename-safe slug"
            )
        for e in self.engines:
            if e not in ENGINES:
                raise ValueError(f"unknown engine {e!r}; known: {ENGINES}")
        for f in self.families:
            if f not in FAMILIES:
                raise ValueError(f"unknown family {f!r}; known: {FAMILIES}")
        if not (self.engines and self.families and self.sizes and self.quotas
                and self.churn and self.faults and self.seeds):
            raise ValueError("every grid axis needs at least one value")
        if any(n < 2 for n in self.sizes):
            raise ValueError(f"sizes must be >= 2, got {self.sizes}")
        if any(b < 1 for b in self.quotas):
            raise ValueError(f"quotas must be >= 1, got {self.quotas}")
        if any(c < 0 for c in self.churn):
            raise ValueError(f"churn counts must be >= 0, got {self.churn}")
        if self.density is not None and self.degree is not None:
            raise ValueError("density and degree are mutually exclusive")
        if (self.density is not None or self.degree is not None) \
                and self.families != ("er",):
            raise ValueError(
                "density/degree specify an Erdős–Rényi edge probability:"
                f" families must be ('er',), got {self.families}"
            )
        if any(k < 0 for k in self.max_rounds):
            raise ValueError(
                f"max_rounds values must be >= 0, got {self.max_rounds}"
            )
        if "lid-truncated" in self.engines and not self.max_rounds:
            raise ValueError(
                "the lid-truncated engine sweeps the max_rounds axis:"
                " give max_rounds at least one round budget"
            )
        if self.max_rounds and "lid-truncated" not in self.engines:
            raise ValueError(
                "max_rounds is only consumed by the lid-truncated engine;"
                f" engines {self.engines} would silently ignore it"
            )
        if "lid-service" in self.engines and (
            self.density is not None or self.degree is not None
        ):
            raise ValueError(
                "the lid-service engine builds its overlay from the family"
                " alone: density/degree would silently not apply to its cells"
            )
        if self.service_workload not in SERVICE_WORKLOADS:
            raise ValueError(
                f"unknown service workload {self.service_workload!r};"
                f" known: {SERVICE_WORKLOADS}"
            )
        if self.service_differential_every < 0:
            raise ValueError(
                "service_differential_every must be >= 0, got"
                f" {self.service_differential_every}"
            )
        if "resilient" in self.engines:
            span = self.backoff_policy().span()
            start, end = self.partition_window()
            if span < end - start:
                raise ValueError(
                    f"retransmit budget span {span:.1f} is shorter than the"
                    f" partition window {end - start:.1f}: revocations could"
                    " be abandoned before the heal, losing lock symmetry"
                    " (see docs/robustness.md); raise the backoff budget or"
                    " shrink the window"
                )

    # -- resilient engine parameters -----------------------------------

    def backoff_policy(self):
        """The resilient engine's retransmission policy.

        ``backoff`` holds :class:`~repro.distsim.reliable.BackoffPolicy`
        arguments; ``None`` means the policy's defaults.
        """
        from repro.distsim.reliable import BackoffPolicy

        return BackoffPolicy(*self.backoff) if self.backoff else BackoffPolicy()

    def partition_window(self) -> tuple[float, float]:
        """A resilient cell's partition/heal cycle ``(start, end)``.

        Long enough for suspicion to fire: the window outlasts
        ``suspect_after`` by four heartbeats.
        """
        start = self.partition_start
        return (start, start + self.suspect_after + 4.0 * self.heartbeat_interval)

    # -- compatibility rules -------------------------------------------

    def compatible(self, cell: GridCell) -> bool:
        """Whether a raw cross-product coordinate is meaningful.

        Faults run only on the resilient engine, and the resilient
        engine runs only on the ``er`` family.  A cell has churn exactly
        when its engine is the long-lived ``lid-service``, which reads
        the churn count as its workload-trace length; every other
        engine is static.
        The ``max_rounds`` coordinate is set exactly on ``lid-truncated``
        cells (the only engine sweeping the round-budget axis).
        """
        if cell.fault != "none" and cell.engine != "resilient":
            return False
        if cell.engine == "resilient" and cell.family != "er":
            return False
        if bool(cell.churn) != (cell.engine == "lid-service"):
            return False
        if (cell.max_rounds is not None) != (cell.engine == "lid-truncated"):
            return False
        return True

    def cells(self) -> list[GridCell]:
        """The compatible cells in deterministic sweep order."""
        out = []
        for engine in self.engines:
            budgets = self.max_rounds if engine == "lid-truncated" else (None,)
            for family in self.families:
                for n in self.sizes:
                    for b in self.quotas:
                        for churn in self.churn:
                            for fault in self.faults:
                                for seed in self.seeds:
                                    for k in budgets:
                                        cell = GridCell(engine, family, n, b,
                                                        churn, fault, seed,
                                                        max_rounds=k)
                                        if self.compatible(cell):
                                            out.append(cell)
        if not out:
            raise ValueError(
                f"grid {self.name!r} expands to zero compatible cells"
                " (see GridSpec.compatible)"
            )
        return out

    # -- content addressing --------------------------------------------

    def to_mapping(self) -> dict:
        """Canonical plain-data form (JSON/TOML friendly)."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def spec_hash(self) -> str:
        """SHA-256 prefix of the canonical JSON — the store key.

        Any change to any field (axes, instance knobs, resilient
        parameters) changes the hash, so stored cells can never be
        reused across semantically different sweeps.
        """
        canon = json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    @staticmethod
    def from_mapping(mapping: Mapping) -> "GridSpec":
        known = {f.name for f in fields(GridSpec)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(
                f"unknown grid-spec keys {sorted(unknown)}; known: {sorted(known)}"
            )
        return GridSpec(**dict(mapping))

    @staticmethod
    def from_toml(path: "str | Path") -> "GridSpec":
        """Load a spec from a TOML file (requires Python ≥ 3.11).

        On 3.10 (no :mod:`tomllib` in the standard library) declarative
        specs are still fully available as dataclasses / mappings; only
        the TOML *file* front end is gated.
        """
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - 3.10 only
            raise RuntimeError(
                "TOML grid specs need Python >= 3.11 (stdlib tomllib);"
                " construct a GridSpec directly or pass a profile name"
            ) from exc
        with open(path, "rb") as fh:
            return GridSpec.from_mapping(tomllib.load(fh))


def load_spec(source: "str | Path | Mapping | GridSpec") -> GridSpec:
    """Resolve a profile name, TOML path, mapping or spec to a GridSpec."""
    if isinstance(source, GridSpec):
        return source
    if isinstance(source, Mapping):
        return GridSpec.from_mapping(source)
    if str(source) in PROFILES:
        return PROFILES[str(source)]
    return GridSpec.from_toml(source)


#: Built-in sweep profiles.  ``smoke`` is the CI merge gate (seconds);
#: ``nightly`` is the scheduled medium-scale sweep; ``faults`` is the
#: 48-cell fault matrix behind A2's campaign table; ``chaos`` is the
#: chaos-smoke CI gate: eight large adversarial cells, each with 5%
#: crashes and a partition/heal cycle.
PROFILES: dict[str, GridSpec] = {
    "smoke": GridSpec(
        name="smoke",
        engines=ENGINES,
        families=("er", "ba"),
        sizes=(30,),
        quotas=(2,),
        churn=(0, 6),
        faults=("none", "loss=0.2+crash=0.05"),
        seeds=(0, 1),
        max_rounds=(2, 1 << 30),
    ),
    "nightly": GridSpec(
        name="nightly",
        engines=ENGINES,
        families=("er", "geo", "ba"),
        sizes=(50, 100, 200),
        quotas=(2, 4),
        churn=(0, 20),
        faults=("none", "loss=0.1", "loss=0.3+crash=0.05",
                "loss=0.1+partition", "byz=0.1"),
        seeds=(0, 1, 2),
        max_rounds=(1, 2, 4, 8, 1 << 30),
    ),
    "truncation": GridSpec(
        name="truncation",
        engines=("lid-truncated",),
        families=("er", "geo"),
        sizes=(60,),
        quotas=(3,),
        max_rounds=(1, 2, 3, 4, 6, 8, 1 << 30),
        seeds=(0, 1),
    ),
    "faults": GridSpec(
        name="faults",
        engines=("resilient",),
        families=("er",),
        sizes=(60,),
        quotas=(3,),
        density=0.15,
        faults=tuple(
            FaultSpec(loss=lo, crash=cr, partition=pa, byzantine=by).label()
            for lo in (0.05, 0.15, 0.3)
            for cr in (0.0, 0.05)
            for pa in (False, True)
            for by in (0.0, 0.1)
        ),
        seeds=(0, 1),
    ),
    "chaos": GridSpec(
        name="chaos",
        engines=("resilient",),
        families=("er",),
        sizes=(500,),
        quotas=(3,),
        density=0.15,
        faults=tuple(
            FaultSpec(loss=lo, crash=0.05, partition=True, byzantine=by).label()
            for lo in (0.05, 0.3)
            for by in (0.0, 0.05)
        ),
        seeds=(0, 1),
    ),
}
