"""Runtime invariant guards for the long-lived matching service.

The service must never *serve* a corrupt matching: the robustness
contract is checked after every applied event, not just at the end of a
trace (the same per-transition philosophy as
:class:`repro.distsim.invariants.InvariantMonitor`, lifted to the
service's external-id state).  Checks:

- **the partner-set rule** — capacity, liveness, adjacency and symmetry
  of every live or matched peer's partner set, in O(n) per pass.  The
  rule is :meth:`repro.overlay.churn.DynamicOverlay.partner_violations`,
  the one the repair also runs over the region it touched, so the two
  cannot disagree; :func:`repro.testing.oracles.check_quota` and its
  siblings over the compact view are the slow-path oracles;
- **eq.-9 weight consistency** — a deterministic sample of cached
  weights must equal, *exactly*, a recomputation from a fresh metric
  ranking of each sampled edge's two endpoints, with the scalar
  arithmetic of :func:`~repro.core.satisfaction.delta_static` (the
  cache uses the same arithmetic, so any drift is corruption, not
  rounding).

A violation does not raise here: the service reads the
:class:`GuardReport` and demotes itself to degraded full-re-solve mode
(see ``docs/robustness.md`` for the ladder).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.overlay.builder import RankedLists

__all__ = ["GuardReport", "ServiceGuard"]

#: cap on the cached edge weights one weight-guard pass recomputes
WEIGHT_SAMPLE = 32


@dataclass
class GuardReport:
    """Outcome of one guard pass."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class ServiceGuard:
    """Per-event invariant checks over a service's external-id state.

    The weight check recomputes :data:`WEIGHT_SAMPLE` cached edge
    weights per pass, taken in sorted key order from a cursor that
    advances every pass, so successive passes sweep the whole cache.
    """

    def __init__(self) -> None:
        self._weight_cursor = 0

    # -- structural invariants -----------------------------------------

    def check_structure(self, service, report: GuardReport) -> None:
        """The partner-set rule over every live or matched peer."""
        report.violations += service.partner_violations(
            service._peers.keys() | service._partners.keys()
        )

    # -- eq.-9 weight consistency --------------------------------------

    def check_weights(self, service, report: GuardReport) -> None:
        """Sampled exact recomputation of the incremental weight cache.

        Each sampled edge is recomputed from a fresh metric ranking of
        its two endpoints' neighbourhoods, independent of both the
        ranked lists and the weight dict, so it also catches a cache
        whose entries survived a preference change they should not have
        and a stale list.
        """
        cached = service._wcache._w
        if not cached:
            return
        peers, adj = service._peers, service._adj
        keys = sorted(cached)
        start = self._weight_cursor % len(keys)
        take = min(WEIGHT_SAMPLE, len(keys))
        self._weight_cursor += take
        sample = [keys[(start + off) % len(keys)] for off in range(take)]
        # both endpoints of every live sampled edge, re-ranked from
        # scratch in one batch
        fresh = RankedLists(service.metric, peers)
        fresh.rank_all({
            p: adj[p]
            for pa, pb in sample
            if pa in peers and pb in peers and pb in adj[pa]
            for p in (pa, pb)
        })

        def delta(p: int, q: int) -> float:
            # eq. 5 from p's freshly scored list, as delta_static computes it
            ell = fresh.length(p)
            return (1.0 - fresh.rank(p, q) / ell) / fresh.quota(p)

        for pa, pb in sample:
            if pa not in peers or pb not in peers:
                report.violations.append(
                    f"weight cache: entry ({pa}, {pb}) names a departed peer"
                )
                continue
            if pb not in adj[pa]:
                report.violations.append(
                    f"weight cache: entry ({pa}, {pb}) is not an instance edge"
                )
                continue
            expect = delta(pa, pb) + delta(pb, pa)
            if cached[(pa, pb)] != expect:
                report.violations.append(
                    f"weight drift: cached w({pa},{pb})={cached[(pa, pb)]!r}"
                    f" but eq. 9 gives {expect!r}"
                )
