"""Mixed populations: LID adopters among legacy peers.

The paper claims its guarantees for "peers that follow [the method]
(either a group or the whole overlay)" (§1/§2).  This module makes that
setting executable: a fraction of nodes are *adopters* that run LID
with proper eq.-9 weight lists, the rest are *legacy* peers that speak
the same PROP/REJ protocol but rank their neighbours by private,
arbitrary orders (they ignore the weight convention).

Two phenomena emerge, both measured by experiment F6:

1. **Deadlock risk** — Lemma 5's termination proof needs the *symmetric*
   weight order; with legacy nodes in the population, communication
   cycles (each node awaiting the next one's answer) become possible
   and the system can quiesce with unfinished nodes.  This is the
   empirical argument for the weight convention: it is not merely an
   optimisation device but the termination mechanism.
2. **Adopter advantage** — in non-deadlocked runs, adopters'
   satisfaction exceeds legacy peers', and degrades gracefully as the
   adopter fraction falls.

Legacy nodes reuse :class:`~repro.core.lid.LidNode` verbatim with a
shuffled weight list — the protocol machinery is identical; only the
ranking convention differs, which isolates exactly the paper's
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.lid import LidNode, mutual_locks
from repro.core.matching import Matching
from repro.core.weights import WeightTable
from repro.distsim.metrics import SimMetrics
from repro.distsim.network import LatencyModel, Network
from repro.distsim.scheduler import Simulator
from repro.utils.rng import spawn_rng
from repro.utils.validation import ProtocolError

__all__ = ["MixedRunResult", "run_mixed_adoption"]


@dataclass
class MixedRunResult:
    """Outcome of one mixed-population run.

    ``deadlocked_nodes`` lists nodes that never finished: the run
    quiesced with proposals pending around a communication cycle —
    exactly the failure mode Lemma 5 excludes for all-adopter
    populations.  ``matching`` contains the symmetric locks formed
    before the stall (locks are always symmetric at quiescence because
    a lock forms at each endpoint upon delivery of the two crossing
    PROPs).
    """

    matching: Matching
    metrics: SimMetrics
    adopters: frozenset[int]
    deadlocked_nodes: list[int]

    @property
    def deadlocked(self) -> bool:
        """Whether any node failed to terminate."""
        return bool(self.deadlocked_nodes)


def run_mixed_adoption(
    wt: WeightTable,
    quotas: Sequence[int],
    adopters: Sequence[int],
    legacy_seed: int = 0,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
) -> MixedRunResult:
    """Run the PROP/REJ protocol with only ``adopters`` honouring eq.-9.

    Parameters
    ----------
    adopters:
        Node ids that use the true weight list; every other node ranks
        its neighbours in a private uniformly random order derived from
        ``legacy_seed``.
    """
    n = wt.n
    adopter_set = frozenset(int(a) for a in adopters)
    for a in adopter_set:
        if not (0 <= a < n):
            raise ValueError(f"adopter {a} outside 0..{n-1}")
    nodes = []
    for i in range(n):
        wl = wt.weight_list(i)
        if i not in adopter_set:
            rng = spawn_rng(legacy_seed, "legacy", str(i))
            wl = [wl[int(k)] for k in rng.permutation(len(wl))]
        nodes.append(LidNode(wl, quotas[i]))
    network = Network(n, latency=latency, links=wt.edges(), seed=seed)
    sim = Simulator(network, nodes)
    sim.run()

    deadlocked = [i for i, nd in enumerate(nodes) if not nd.finished]
    matching, one_sided = mutual_locks(nodes)
    if one_sided:
        i, j = one_sided[0]
        raise ProtocolError(f"asymmetric lock {i} ~ {j} at quiescence")
    return MixedRunResult(
        matching=matching,
        metrics=sim.metrics,
        adopters=adopter_set,
        deadlocked_nodes=deadlocked,
    )
