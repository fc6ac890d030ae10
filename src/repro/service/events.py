"""Deterministic churn workloads for the long-lived matching service.

A workload is a :class:`WorkloadTrace`: a pure function of ``(driver
name, event count, seed, quota)``.  The quota is the joiners' ``b_i``;
a service run passes its :class:`~repro.service.runner.ServiceConfig`
quota, so joiners keep the quota the initial peers have.  Every other
shape of a workload (rate, join degree, event mixes, phase lengths) is a
module constant.  Every event carries *all* the random material it
needs (selector entropy ``r``, join coordinates, quotas), drawn at
generation time — resolving an event against the live overlay (which
peer leaves, which neighbours a joiner attaches to) is a deterministic
function of ``(event, current state)``.  That makes
replay trivially crash-consistent: a restored service needs only the
trace parameters and an event cursor, never an RNG state.

Drivers
-------
- :func:`poisson_trace` — memoryless arrivals, the steady-state mix;
- :func:`flash_crowd_trace` — a join surge, a plateau, a mass exodus;
- :func:`diurnal_trace` — sinusoidally modulated rate and join/leave
  balance (daytime growth, nighttime shrinkage);
- :func:`storm_trace` — adversarial alternating join/leave storms; the
  ungraceful-crash sub-schedule of every leave storm is built and
  validated through :class:`repro.distsim.failures.CrashSchedule`, the
  same machinery the fault campaign uses.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable

from repro.utils.rng import spawn_rng

__all__ = [
    "ChurnEvent",
    "EVENT_KINDS",
    "WORKLOADS",
    "WorkloadTrace",
    "diurnal_trace",
    "flash_crowd_trace",
    "make_trace",
    "poisson_trace",
    "storm_trace",
]

EVENT_KINDS = ("join", "leave", "crash", "update")

#: selector entropy is bounded so event records stay portable JSON ints
_R_MAX = 2**53

#: base arrival rate of every workload, events per unit of virtual time
RATE = 10.0
#: a joiner attaches to JOIN_DEGREE - 1 .. JOIN_DEGREE + 1 live peers
JOIN_DEGREE = 4
#: the Poisson event mix; the slight join surplus keeps the population
#: from draining over long traces, and updates take the remainder
POISSON_MIX = (("join", 0.42), ("leave", 0.33), ("crash", 0.05),
               ("update", 1.0 - 0.42 - 0.33 - 0.05))
#: flash crowd: the shares of the trace in the join surge and in the
#: mixed plateau (the exodus takes the rest), and the two mixed phases
FLASH_SURGE_FRAC = 0.4
FLASH_PLATEAU_FRAC = 0.3
FLASH_PLATEAU_MIX = (("join", 0.3), ("leave", 0.3), ("crash", 0.05),
                     ("update", 0.35))
FLASH_EXODUS_MIX = (("join", 0.05), ("leave", 0.6), ("crash", 0.3),
                    ("update", 0.05))
#: diurnal load: the length of a day in virtual time and the relative
#: swing of the arrival rate over it
DIURNAL_PERIOD = 24.0
DIURNAL_AMPLITUDE = 0.8
#: storms: events per burst, and the share of a departure storm's exits
#: that are ungraceful crashes
STORM_LEN = 16
STORM_CRASH_FRAC = 0.5


@dataclass(frozen=True)
class ChurnEvent:
    """One churn arrival, self-contained and JSON-round-trippable.

    Attributes
    ----------
    seq:
        Position in the trace (the checkpoint cursor counts these).
    t:
        Virtual arrival time (drives nothing yet beyond reporting, but
        keeps traces comparable with the simulator's clock).
    kind:
        ``join`` / ``leave`` / ``crash`` / ``update``.  A crash is an
        ungraceful leave: same state change, separate accounting.
    r:
        Selector entropy.  Victim selection (`leave`/`crash`/`update`)
        indexes the sorted alive-id list with ``r``; joins derive their
        neighbour choice from a generator seeded with ``r``.
    degree:
        Number of neighbours a joiner attaches to (capped by the alive
        population at apply time).
    quota:
        The joiner's connection quota ``b_i``.
    position:
        Unit-square coordinates, exactly two finite numbers — the
        joiner's position, or the new position of an ``update`` victim
        (which re-ranks its region).
    """

    seq: int
    t: float
    kind: str
    r: int = 0
    degree: int = 0
    quota: int = 0
    position: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; known: {EVENT_KINDS}")
        if not (0 <= self.r < _R_MAX):
            raise ValueError(f"selector entropy {self.r} outside [0, 2**53)")
        # a NaN or infinite score would corrupt the ranked lists, a third
        # coordinate the distance metric: reject both at the boundary
        if len(self.position) != 2 or not all(
            isinstance(x, numbers.Real)
            and not isinstance(x, bool)
            and math.isfinite(x)
            for x in self.position
        ):
            raise ValueError(
                f"position must be two finite floats, got {self.position!r}"
            )

    def to_record(self) -> dict:
        return {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "r": self.r,
            "degree": self.degree,
            "quota": self.quota,
            "position": list(self.position),
        }

    @staticmethod
    def from_record(record: dict) -> "ChurnEvent":
        return ChurnEvent(
            seq=int(record["seq"]),
            t=float(record["t"]),
            kind=str(record["kind"]),
            r=int(record["r"]),
            degree=int(record["degree"]),
            quota=int(record["quota"]),
            position=tuple(float(x) for x in record["position"]),
        )


@dataclass(frozen=True)
class WorkloadTrace:
    """A named, seeded, fully materialised event sequence."""

    name: str
    seed: int
    events: tuple[ChurnEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def fingerprint(self) -> str:
        """12-hex digest of the canonical trace content.

        Checkpoints pin this so a service can never resume one trace
        and silently replay a different one.
        """
        canon = json.dumps(
            {
                "name": self.name,
                "seed": self.seed,
                "events": [e.to_record() for e in self.events],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    def kind_counts(self) -> dict[str, int]:
        out = {k: 0 for k in EVENT_KINDS}
        for e in self.events:
            out[e.kind] += 1
        return out


def _draw_r(rng) -> int:
    return int(rng.integers(0, _R_MAX))


def _join(seq: int, t: float, rng, quota: int) -> ChurnEvent:
    return ChurnEvent(
        seq=seq,
        t=t,
        kind="join",
        r=_draw_r(rng),
        degree=int(rng.integers(JOIN_DEGREE - 1, JOIN_DEGREE + 2)),
        quota=quota,
        position=(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
    )


def _victim(seq: int, t: float, rng, kind: str) -> ChurnEvent:
    return ChurnEvent(seq=seq, t=t, kind=kind, r=_draw_r(rng))


def _update(seq: int, t: float, rng) -> ChurnEvent:
    return ChurnEvent(
        seq=seq,
        t=t,
        kind="update",
        r=_draw_r(rng),
        position=(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
    )


def _mixed_event(seq, t, rng, mix, quota) -> ChurnEvent:
    kinds, probs = zip(*mix)
    kind = kinds[int(rng.choice(len(kinds), p=list(probs)))]
    if kind == "join":
        return _join(seq, t, rng, quota)
    if kind == "update":
        return _update(seq, t, rng)
    return _victim(seq, t, rng, kind)


def _check_counts(events: int, quota: int) -> None:
    if events < 0:
        raise ValueError(f"events must be >= 0, got {events}")
    if quota < 1:
        raise ValueError(f"quota must be >= 1, got {quota}")


def poisson_trace(events: int, seed: int, quota: int) -> WorkloadTrace:
    """Memoryless churn: exponential inter-arrivals, :data:`POISSON_MIX`."""
    _check_counts(events, quota)
    rng = spawn_rng(seed, "service-poisson")
    t = 0.0
    out = []
    for seq in range(events):
        t += float(rng.exponential(1.0 / RATE))
        out.append(_mixed_event(seq, t, rng, POISSON_MIX, quota))
    return WorkloadTrace("poisson", seed, tuple(out))


def flash_crowd_trace(events: int, seed: int, quota: int) -> WorkloadTrace:
    """A flash crowd: join surge → mixed plateau → mass exodus.

    The surge arrives an order of magnitude faster than the plateau;
    the exodus mixes graceful leaves with ungraceful crashes (a crowd
    closing laptops, not saying goodbye).
    """
    _check_counts(events, quota)
    rng = spawn_rng(seed, "service-flash")
    surge = int(events * FLASH_SURGE_FRAC)
    plateau = int(events * FLASH_PLATEAU_FRAC)
    t = 0.0
    out = []
    for seq in range(events):
        if seq < surge:
            t += float(rng.exponential(1.0 / (10.0 * RATE)))
            out.append(_join(seq, t, rng, quota))
        elif seq < surge + plateau:
            t += float(rng.exponential(1.0 / RATE))
            out.append(_mixed_event(seq, t, rng, FLASH_PLATEAU_MIX, quota))
        else:
            t += float(rng.exponential(1.0 / (4.0 * RATE)))
            out.append(_mixed_event(seq, t, rng, FLASH_EXODUS_MIX, quota))
    return WorkloadTrace("flash", seed, tuple(out))


def diurnal_trace(events: int, seed: int, quota: int) -> WorkloadTrace:
    """Diurnal load: rate and join/leave balance follow a day cycle.

    Daytime (phase ∈ [0, ½)) churns fast and join-heavy; nighttime slow
    and leave-heavy — the classic measured P2P session pattern.
    """
    _check_counts(events, quota)
    rng = spawn_rng(seed, "service-diurnal")
    t = 0.0
    out = []
    for seq in range(events):
        phase = math.sin(2.0 * math.pi * t / DIURNAL_PERIOD)
        t += float(rng.exponential(1.0 / (RATE * (1.0 + DIURNAL_AMPLITUDE * phase))))
        join_p = 0.40 + 0.25 * phase  # day: joins dominate; night: leaves
        leave_p = 0.40 - 0.25 * phase
        mix = [("join", join_p), ("leave", leave_p), ("crash", 0.05),
               ("update", 1.0 - join_p - leave_p - 0.05)]
        out.append(_mixed_event(seq, t, rng, mix, quota))
    return WorkloadTrace("diurnal", seed, tuple(out))


def storm_trace(events: int, seed: int, quota: int) -> WorkloadTrace:
    """Adversarial alternating join/leave storms.

    Bursts of :data:`STORM_LEN` back-to-back joins alternate with
    equally long departure storms in which a :data:`STORM_CRASH_FRAC`
    share of exits are ungraceful.  The crash sub-schedule of each
    departure storm is round-tripped through
    :class:`repro.distsim.failures.CrashSchedule` so storm traces share
    the fault campaign's validated timing model (positive finite times,
    canonical ordering).
    """
    from repro.distsim.failures import CrashSchedule

    _check_counts(events, quota)
    rng = spawn_rng(seed, "service-storm")
    t = 0.0
    out: list[ChurnEvent] = []
    seq = 0
    joining = True
    while seq < events:
        burst = min(STORM_LEN, events - seq)
        times = []
        for _ in range(burst):
            t += float(rng.exponential(1.0 / (20.0 * RATE)))
            times.append(t)
        if joining:
            for bt in times:
                out.append(_join(seq, bt, rng, quota))
                seq += 1
        else:
            crashes = [(bt, k) for k, bt in enumerate(times)
                       if rng.random() < STORM_CRASH_FRAC]
            # validate the ungraceful sub-schedule exactly as the fault
            # campaign would: CrashSchedule canonicalises and rejects
            # malformed (time, slot) pairs
            crash_slots = {k for _, k in CrashSchedule(crashes).crashes}
            for k, bt in enumerate(times):
                kind = "crash" if k in crash_slots else "leave"
                out.append(_victim(seq, bt, rng, kind))
                seq += 1
        t += float(rng.exponential(4.0 / RATE))  # lull between storms
        joining = not joining
    return WorkloadTrace("storm", seed, tuple(out))


WORKLOADS: dict[str, Callable[[int, int, int], WorkloadTrace]] = {
    "poisson": poisson_trace,
    "flash": flash_crowd_trace,
    "diurnal": diurnal_trace,
    "storm": storm_trace,
}


def make_trace(workload: str, events: int, seed: int, quota: int) -> WorkloadTrace:
    """Build the named workload's trace (deterministic in all inputs)."""
    try:
        generate = WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}"
        ) from None
    return generate(events, seed, quota)
