"""Irving's stable roommates algorithm (exact, unit quotas).

The stable fixtures problem restricted to ``b_i = 1`` is the classic
stable roommates problem (with incomplete lists, "SRI", since overlay
knowledge graphs are not complete).  This module implements Irving's
two-phase algorithm:

- **Phase 1** — proposal round: everyone proposes down their list; a
  receiver holds its best proposer and rejects the rest; afterwards
  each holder's list is truncated below its held proposer.  All
  rejections/truncations are *symmetric deletions* of pairs.
- **Phase 2** — rotation elimination: while some reduced list has more
  than one entry, expose a rotation (the ``second``/``last`` walk) and
  eliminate it; lists shrink strictly, so this terminates.

Outcome for complete even instances is Irving's classic dichotomy:
either all lists end as singletons (the unique content of a stable
matching) or some list empties (no stable matching exists).  With an
odd number of nodes an emptied list only means that node stays
unmatched, so odd instances take the incomplete-list path.  For
*incomplete* lists the phase-2-empty case is reported as *uncertain*
(SRI needs a more careful argument), and every positive answer is
certified with the independent blocking-pair checker before being
returned — the caller (:func:`repro.baselines.stable_fixtures.
stable_fixtures_matching`) falls back to its hybrid whenever this
solver is not certain.

References: R.W. Irving, *An efficient algorithm for the stable
roommates problem*, J. Algorithms 1985; Gusfield & Irving, *The Stable
Marriage Problem*, 1989 (ch. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from repro.baselines.verify import is_stable
from repro.core.matching import Matching
from repro.core.preferences import PreferenceSystem

__all__ = ["StableRoommatesResult", "stable_roommates"]


@dataclass
class StableRoommatesResult:
    """Answer of the exact solver.

    ``certain`` distinguishes proven answers (complete-case dichotomy or
    verified matchings) from the SRI phase-2-empty case where this
    implementation abstains.
    """

    matching: Optional[Matching]
    exists: Optional[bool]
    certain: bool
    phase: Literal["phase1", "phase2", "verified", "abstain"]


class _Table:
    """Reduced preference lists with symmetric deletion."""

    def __init__(self, ps: PreferenceSystem):
        self.lists: list[list[int]] = [list(ps.preference_list(i)) for i in ps.nodes()]
        self.rank = [
            {j: r for r, j in enumerate(lst)} for lst in self.lists
        ]

    def delete(self, a: int, b: int) -> None:
        """Symmetric deletion of the pair ``{a, b}`` (if present)."""
        if b in self.rank[a]:
            self.lists[a].remove(b)
            del self.rank[a][b]
        if a in self.rank[b]:
            self.lists[b].remove(a)
            del self.rank[b][a]

    def first(self, x: int) -> int:
        return self.lists[x][0]

    def second(self, x: int) -> int:
        return self.lists[x][1]

    def last(self, x: int) -> int:
        return self.lists[x][-1]

    def prefers(self, y: int, a: int, b: int) -> bool:
        """Whether ``y`` prefers ``a`` to ``b`` (both must be in y's list)."""
        return self.rank[y][a] < self.rank[y][b]

    def truncate_after(self, y: int, x: int) -> None:
        """Delete from ``y``'s list everyone ranked strictly below ``x``.

        Uses the *current* list position (``rank`` keeps original
        indices, which remain valid for order comparisons but not as
        positions once entries have been deleted).
        """
        pos = self.lists[y].index(x)
        for z in list(self.lists[y][pos + 1 :]):
            self.delete(y, z)


def _phase1(table: _Table, n: int) -> None:
    """Proposal round; mutates the table to the phase-1 reduction."""
    held_by: list[Optional[int]] = [None] * n  # held_by[y] = proposer y holds
    holds_me: list[Optional[int]] = [None] * n  # who holds x's proposal
    stack = [x for x in range(n) if table.lists[x]]
    while stack:
        x = stack.pop()
        if holds_me[x] is not None:
            continue
        while holds_me[x] is None and table.lists[x]:
            y = table.first(x)
            current = held_by[y]
            if current is None:
                held_by[y] = x
                holds_me[x] = y
            elif table.prefers(y, x, current):
                held_by[y] = x
                holds_me[x] = y
                holds_me[current] = None
                table.delete(current, y)
                stack.append(current)
            else:
                table.delete(x, y)
    # truncation: y keeps nobody worse than its held proposer
    for y in range(n):
        x = held_by[y]
        if x is not None and x in table.rank[y]:
            table.truncate_after(y, x)


def _find_rotation(table: _Table, start: int) -> Optional[list[tuple[int, int]]]:
    """Expose a rotation by the second/last walk from ``start``.

    Returns the rotation as pairs ``(a_i, b_i)`` with ``b_i = first(a_i)``,
    or ``None`` if the walk hits a structural surprise (possible only in
    the incomplete-list case; the caller then abstains).
    """
    xs: list[int] = [start]
    pos: dict[int, int] = {start: 0}
    while True:
        x = xs[-1]
        if len(table.lists[x]) < 2:
            return None  # walk left the >=2 region: abstain
        y = table.second(x)
        if not table.lists[y]:
            return None
        x_next = table.last(y)
        if x_next in pos:
            cycle = xs[pos[x_next] :]
            return [(a, table.first(a)) for a in cycle]
        pos[x_next] = len(xs)
        xs.append(x_next)


def _eliminate(table: _Table, rotation: list[tuple[int, int]]) -> None:
    """Eliminate a rotation: each ``b_{i+1}`` keeps nothing below ``a_i``."""
    r = len(rotation)
    for i in range(r):
        a_i = rotation[i][0]
        b_next = rotation[(i + 1) % r][1]
        # b_{i+1} now holds a_i's proposal: reject everyone worse
        if a_i in table.rank[b_next]:
            table.truncate_after(b_next, a_i)
        # note: this deletes (a_{i+1}, b_{i+1}) because a_{i+1} = last(b_{i+1})


def stable_roommates(ps: PreferenceSystem) -> StableRoommatesResult:
    """Run Irving's algorithm on a unit-quota instance.

    Raises if any quota exceeds 1.  See the module docstring for the
    completeness guarantees; every returned matching is verified stable.
    """
    for i in ps.nodes():
        if ps.quota(i) > 1:
            raise ValueError(
                f"stable_roommates needs unit quotas, node {i} has b={ps.quota(i)}"
            )
    n = ps.n
    # Irving's dichotomy needs a perfect matching to be possible
    complete = n % 2 == 0 and all(ps.degree(i) == n - 1 for i in ps.nodes())

    table = _Table(ps)
    _phase1(table, n)
    emptied_in_phase1 = [x for x in range(n) if not table.lists[x] and ps.degree(x) > 0]
    if complete and emptied_in_phase1:
        # complete case: somebody rejected by everyone -> no stable matching
        return StableRoommatesResult(None, False, True, "phase1")

    # phase 2: eliminate rotations until all lists are <= 1
    empty_before = {x for x in range(n) if not table.lists[x]}
    guard = 0
    while True:
        guard += 1
        if guard > n * n + 10:  # pragma: no cover - safety valve
            return StableRoommatesResult(None, None, False, "abstain")
        over = [x for x in range(n) if len(table.lists[x]) > 1]
        if not over:
            break
        rotation = _find_rotation(table, over[0])
        if rotation is None:
            return StableRoommatesResult(None, None, False, "abstain")
        _eliminate(table, rotation)
        newly_empty = [
            x
            for x in range(n)
            if not table.lists[x] and x not in empty_before and ps.degree(x) > 0
        ]
        if newly_empty:
            if complete:
                return StableRoommatesResult(None, False, True, "phase2")
            # SRI: a list emptied during phase 2 — Irving's dichotomy
            # needs the complete-case argument; abstain rather than guess
            return StableRoommatesResult(None, None, False, "abstain")

    # build the matching from the singleton lists
    matching = Matching(n)
    for x in range(n):
        if table.lists[x]:
            y = table.first(x)
            if not table.lists[y] or table.first(y) != x:
                return StableRoommatesResult(None, None, False, "abstain")
            if x < y:
                matching.add(x, y)
    if is_stable(ps, matching):
        return StableRoommatesResult(matching, True, True, "verified")
    return StableRoommatesResult(None, None, False, "abstain")
