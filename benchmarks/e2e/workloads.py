"""The four seeded workloads of the end-to-end benchmark.

Every workload has the same shape:

- ``build()`` makes the inputs from the seed (timed as set-up);
- ``start(built)`` installs them (untimed);
- ``op(k)`` is one operation — the only timed call;
- ``check(k, out)`` verifies that operation outside the timed region
  and returns failure messages (empty when correct);
- ``counts(out)`` returns the operation's work counts;
- ``finish()`` runs the end-of-pass correctness checks;
- ``deterministic()`` returns witnesses that are byte-identical across
  passes, runs and commits for a given seed;
- a *pass* is one ``build`` followed by operations ``0 .. ops-1``.
  Every pass of a run does the same work on the same inputs, so the
  k-th operations of all passes are timings of one thing.

Library calls go through module attributes (``fast.lic_matching_fast``)
rather than imported names, so the traced pass can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from repro.baselines import verify
from repro.core import fast, fast_lid, lic, lid, resilient_lid, weights
from repro.experiments import instances
from repro.service import checkpoint, differential, runner

__all__ = ["WORKLOADS", "make_workload"]


def _digest(obj) -> str:
    canon = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _arrays_sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()[:16]


def _matching_sha(matching) -> str:
    return _digest(sorted(matching.edges()))


def _oracle_failures(k: int, ps, matching, wt) -> list[str]:
    """The full oracle battery and the weighted-stability certificate."""
    failures = []
    report = verify.check_matching(ps, matching)
    if not report.ok:
        failures.append(f"op {k}: oracle violations: {report.summary()}")
    wbp = verify.count_weighted_blocking_pairs(ps, matching, wt)
    if wbp:
        failures.append(f"op {k}: {wbp} weighted blocking pairs")
    return failures


class _StaticWorkload:
    """One random instance, solved from scratch by every operation.

    Subclasses set ``sizes`` (quick n, full n) and ``ops`` (solves per
    pass).  The run's first op gets the expensive checks and records
    the witnesses; every later op, in every pass, must reproduce its
    matching digest.
    """

    sizes = (0, 0)
    ops = 0

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.n = self.sizes[0] if quick else self.sizes[1]
        self.first: dict | None = None

    def build(self):
        # Erdős–Rényi with random rankings: random_geometric is O(n^2) in
        # memory, which rules it out at this size
        return instances.random_preference_instance(self.n, 12.0 / self.n, 3, self.seed)

    def start(self, ps) -> None:
        self.ps = ps

    def reset(self) -> None:
        self.ps = None

    def _digest_failures(self, k: int, matching) -> list[str]:
        if self.first is not None and _matching_sha(matching) != self.first["matching_sha"]:
            return [f"op {k}: matching digest differs from the run's first op"]
        return []

    def finish(self) -> list[str]:
        return []

    def deterministic(self) -> dict:
        return dict(self.first or {})


class StaticLarge(_StaticWorkload):
    """Cold fast-backend solves on a large instance: the array kernels."""

    sizes = (2_000, 30_000)
    ops = 3

    def op(self, k: int):
        fi = fast.FastInstance.from_preference_system(self.ps)
        lic_m = fast.lic_matching_fast(fi)
        lid_r = fast_lid.lid_matching_fast(fi)
        profile = fast.satisfaction_profile_fast(self.ps, lid_r.matching)
        return fi, lic_m, lid_r, profile

    def check(self, k: int, out) -> list[str]:
        fi, lic_m, lid_r, profile = out
        failures = self._digest_failures(k, lid_r.matching)
        if lid_r.matching.edge_set() != lic_m.edge_set():
            failures.append(f"op {k}: LID edge set differs from LIC (Theorem 3)")
        if self.first is None:
            failures += _oracle_failures(k, self.ps, lid_r.matching, fi.weight_table())
            self.first = {
                "n": self.ps.n,
                "m": self.ps.m,
                "instance_sha": _arrays_sha(fi.i, fi.j, fi.ri, fi.rj),
                "matching_sha": _matching_sha(lid_r.matching),
                "matched": lid_r.matching.size(),
                "rounds": lid_r.rounds,
                "causal_rounds": lid_r.causal_rounds,
                "prop_messages": lid_r.prop_messages,
                "rej_messages": lid_r.rej_messages,
                "satisfaction_sum": float(profile.sum()),
            }
        return failures

    def counts(self, out) -> dict:
        lid_r = out[2]
        return {
            "core.fast_lid.rounds": lid_r.rounds,
            "core.fast_lid.messages": lid_r.prop_messages + lid_r.rej_messages,
        }


class ProtocolSim(_StaticWorkload):
    """Reference weights, LIC and both message-level LID simulations."""

    sizes = (300, 2_000)
    ops = 2

    def op(self, k: int):
        wt = weights.satisfaction_weights(self.ps)
        lic_m = lic.lic_matching(wt, self.ps.quotas)
        lid_r = lid.run_lid(wt, self.ps.quotas)
        res_r = resilient_lid.run_resilient_lid(wt, self.ps.quotas)
        return wt, lic_m, lid_r, res_r

    def check(self, k: int, out) -> list[str]:
        wt, lic_m, lid_r, res_r = out
        failures = self._digest_failures(k, lid_r.matching)
        edges = lic_m.edge_set()
        if lid_r.matching.edge_set() != edges:
            failures.append(f"op {k}: run_lid edge set differs from LIC (Theorem 3)")
        if res_r.matching.edge_set() != edges:
            failures.append(f"op {k}: run_resilient_lid edge set differs from LIC")
        if not res_r.ok:
            failures.append(f"op {k}: resilient run not ok: {res_r.violations[:3]}")
        if self.first is None:
            failures += _oracle_failures(k, self.ps, lid_r.matching, wt)
            fi = fast.FastInstance.from_preference_system(self.ps)
            fast_r = fast_lid.lid_matching_fast(fi)
            if fast.lic_matching_fast(fi).edge_set() != edges:
                failures.append(f"op {k}: lic_matching_fast edge set differs from LIC")
            if fast_r.matching.edge_set() != edges:
                failures.append(f"op {k}: lid_matching_fast edge set differs from LIC")
            props = np.array([node.props_sent for node in lid_r.nodes], dtype=np.int64)
            rejs = np.array([node.rejs_sent for node in lid_r.nodes], dtype=np.int64)
            if not (
                np.array_equal(props, fast_r.props_sent)
                and np.array_equal(rejs, fast_r.rejs_sent)
            ):
                failures.append(f"op {k}: run_lid per-node PROP/REJ differ from lid_matching_fast")
            self.first = {
                "n": self.ps.n,
                "m": self.ps.m,
                "instance_sha": _arrays_sha(fi.i, fi.j, fi.ri, fi.rj),
                "matching_sha": _matching_sha(lid_r.matching),
                "matched": lid_r.matching.size(),
                "lid_events": lid_r.metrics.events,
                "lid_rounds": lid_r.rounds,
                "lid_prop": lid_r.prop_messages,
                "lid_rej": lid_r.rej_messages,
                "resilient_events": res_r.metrics.events,
                "resilient_sent": dict(sorted(res_r.metrics.sent_by_kind.items())),
                "resilient_retransmissions": res_r.metrics.retransmissions,
            }
        return failures

    def counts(self, out) -> dict:
        _, _, lid_r, res_r = out
        return {
            "distsim.lid.events": lid_r.metrics.events,
            "distsim.lid.messages": lid_r.prop_messages + lid_r.rej_messages,
            "distsim.resilient.events": res_r.metrics.events,
            "distsim.resilient.messages": res_r.metrics.total_sent,
            "distsim.resilient.retransmissions": res_r.metrics.retransmissions,
        }


class ServiceWorkload:
    """A closed-loop event replay through one :class:`MatchingService`.

    One caller applies the next trace event only after the previous
    ``apply`` — and the checkpoint due on it, if any — has returned,
    the way ``run_service`` drives the library.  A pass builds a fresh
    service and replays the trace's ``ops`` events; ``checkpoint_every``
    divides ``ops``, so the last event of a pass writes a checkpoint.
    """

    def __init__(
        self,
        seed: int,
        quick: bool,
        workdir: Path,
        *,
        n: int,
        quick_n: int,
        trace: str,
        checkpoint_every: int,
        ops: int,
    ):
        self.ops = ops
        self.config = runner.ServiceConfig(
            n=quick_n if quick else n,
            family="geo",
            seed=seed,
            events=self.ops,
            workload=trace,
            checkpoint_every=checkpoint_every,
            differential_every=0,
        )
        self.workdir = workdir

    def build(self):
        trace = self.config.trace()
        return trace, trace.fingerprint(), runner.build_service(self.config)

    def start(self, built) -> None:
        self.trace, self.fingerprint, self.service = built
        self.full_resolves = self.service.counters["full_resolves"]
        self.applied = 0
        shutil.rmtree(self.workdir, ignore_errors=True)

    def reset(self) -> None:
        self.service = None

    def op(self, k: int):
        outcome = self.service.apply(self.trace.events[k])
        path = None
        if (k + 1) % self.config.checkpoint_every == 0:
            path = checkpoint.write_checkpoint(
                self.workdir, k + 1, self.fingerprint, self.service.snapshot()
            )
        return outcome, path

    def check(self, k: int, out) -> list[str]:
        outcome, _ = out
        self.applied = k + 1
        if not outcome.guard_ok:
            return [f"event {k}: guard violation ({outcome.kind})"]
        return []

    def counts(self, out) -> dict:
        outcome, path = out
        stats = outcome.stats
        resolves = self.service.counters["full_resolves"]
        counts = {"service.full_resolves": resolves - self.full_resolves}
        self.full_resolves = resolves
        if stats is not None:
            counts.update({
                "overlay.churn.resolutions": stats.resolutions,
                "overlay.churn.edges_scanned": stats.edges_scanned,
                "overlay.churn.weights_reused": stats.weights_reused,
                "overlay.churn.weights_recomputed": stats.weights_recomputed,
            })
        if path is not None:
            counts["service.checkpoints"] = 1
            counts["service.checkpoint.kb"] = path.stat().st_size / 1024.0
        return counts

    def finish(self) -> list[str]:
        failures = []
        newest = checkpoint.latest_checkpoint(self.workdir)
        if newest is None:
            failures.append("no intact checkpoint after the replay")
        else:
            payload = checkpoint.load_checkpoint(newest, fingerprint=self.fingerprint)
            live = json.loads(json.dumps(self.service.snapshot()))
            if payload["state"] != live:
                failures.append(f"checkpoint {newest.name} differs from the live snapshot")
        report = differential.conformance_check(self.service)
        if not report.ok:
            failures.append(
                f"final conformance failed: {len(report.oracle_violations)} oracle"
                f" violations, {report.blocking_edges} blocking edges,"
                f" matches fresh solve={report.matches_fresh_solve}"
            )
        return failures

    def deterministic(self) -> dict:
        """Witnesses of the service state after the pass's events so far."""
        svc = self.service
        edges = sorted((p, q) for p in svc.active_ids() for q in svc.partners(p) if p < q)
        return {
            "n0": self.config.n,
            "trace_fingerprint": self.fingerprint,
            "events": self.applied,
            "alive": svc.n,
            "matching_sha": _digest(edges),
            "matched": len(edges),
            "sat_total": svc.total_satisfaction(),
            "kinds": {
                c: svc.counters[c] for c in ("joins", "leaves", "crashes", "updates", "skipped")
            },
        }


# A pass holds whole cycles of the costly events: the service's sampled
# weight guard runs on every 8th event, and a storm trace alternates 16
# joins with 16 departures.  Cost per event differs between seeds with
# the event mix (a leave costs about a fifth more than a join) and with
# the geometric topology's edge count (3.3% CV over seeds at n=200,
# 1.6% at n=800), so a pass holds 16 Poisson events.  The sizes keep a
# pass near 5 s, so a run holds 3 or more passes even on a slowed host.


def _steady(seed: int, quick: bool, workdir: Path) -> ServiceWorkload:
    return ServiceWorkload(
        seed, quick, workdir, n=500, quick_n=100,
        trace="poisson", checkpoint_every=8, ops=16,
    )


def _storm(seed: int, quick: bool, workdir: Path) -> ServiceWorkload:
    return ServiceWorkload(
        seed, quick, workdir, n=250, quick_n=50,
        trace="storm", checkpoint_every=1, ops=32,
    )


WORKLOADS = {
    "static-large": StaticLarge,
    "protocol-sim": ProtocolSim,
    "service-steady": _steady,
    "service-storm": _storm,
}


def make_workload(name: str, seed: int, quick: bool, workdir: Path):
    """Instantiate the named workload (``KeyError`` for an unknown name)."""
    return WORKLOADS[name](seed, quick, workdir)
