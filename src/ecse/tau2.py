"""Polynomial solver for equitable elections with exactly two levels.

With target one, an agent nominating in a single level forces that candidate,
and after the forcing rules every agent nominates in both levels.  Candidates
then become vertices of a bipartite graph (one side per level) and agents its
edges; a solution is an independent vertex cover respecting per-side budgets
whose degree sums reach the remaining per-level thresholds.  In every
connected component such a cover takes exactly one full side, so a sweep over
components with reachable (budget, budget, score) triples decides the graph
problem in polynomial time.  For each state and batch of equal components the
sweep enumerates only the numbers of left sides that fit both budgets.

One pass over the agents' nomination pairs builds the graph, with a missing
nomination as the ordinary vertex 0.  The forcing rules run on vertex 0's
component alone and decide it whole.  A single-nomination agent is an edge
at vertex 0; forcing its nominee deletes every edge at that candidate and
erases each partner nomination, turning every other edge at that partner
into an edge at vertex 0.  So along every path from vertex 0 each candidate
is forced or erased and each agent deleted, or the rules answer no, and no
step leaves the component.  The rules run as a worklist, as unit
propagation does for Horn clauses: each forcing deletes its supporters and
erases each partner nomination through a (level, candidate) index, and
agents left with one nomination join a heap.  The sweep takes the other
components as the pass read them.

The graph is held as its components alone, which partition both sides.  It
reads the pairs in blocks that double in length and merges each block's new
distinct pairs, so the components are merged once per distinct pair, not
once per agent.  It stops reading as soon as one component holds every
vertex, 0 included: a connected graph, as uniform nominations give after a
few hundred agents, costs one short block however many agents there are; a
graph that never connects reads every pair.  Its vertices are plain ints,
level-1 candidate u as u and level-2 candidate v as -v, so no (side,
candidate) tuple is built or hashed per lookup.  :func:`solve_cbivcs` takes
the budgets, thresholds and forced candidates off the rules' own
:class:`X2Instance` and the components as the pass found them, and returns
the two committees.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from itertools import compress, islice
from operator import neg

from .model import (
    EQUITABLE,
    CommitteeSequence,
    Instance,
    SolveResult,
    trivial_solve,
)

# agents in the graph's first block of nomination pairs; each later block
# is twice as long
_FIRST_BLOCK = 1024


@dataclass(frozen=True)
class X2Instance:
    """Two-level equitable instance with target one, independent per-level
    bounds and a log of force-elected candidates.  Every other target of a
    two-level instance is a trivial case (see :func:`solve_qcse_tau2`)."""

    row1: tuple[int, ...]
    row2: tuple[int, ...]
    k1: int
    k2: int
    x1: int
    x2: int
    forced1: tuple[int, ...] = ()
    forced2: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.row1) != len(self.row2):
            raise ValueError("rows must have one entry per agent")

    @property
    def n(self) -> int:
        return len(self.row1)


def x2_from_instance(inst: Instance) -> X2Instance:
    if inst.mode != EQUITABLE or inst.tau != 2:
        raise ValueError("expected an equitable two-level instance")
    if inst.y != 1:
        raise ValueError("expected target one")
    return X2Instance(inst.profile[0], inst.profile[1], inst.k, inst.k, inst.x, inst.x)


def rr_x2_force_single(x2: X2Instance) -> X2Instance | None:
    """Force the nominee of the first single-nomination agent.

    The candidate is recorded as elected, its level's budget and threshold
    are paid (threshold clamps at zero), its supporters are deleted, and
    every other-level nomination those supporters held is erased everywhere
    (electing one would overshoot a deleted agent).  Returns the input
    unchanged when no agent qualifies, None when the budget goes negative.
    """
    pick = None
    for a0 in range(x2.n):
        one, two = x2.row1[a0], x2.row2[a0]
        if (one == 0) != (two == 0):
            pick = (1, one) if two == 0 else (2, two)
            break
    if pick is None:
        return x2
    t, star = pick
    here, there = (x2.row1, x2.row2) if t == 1 else (x2.row2, x2.row1)
    supporters = [a0 for a0 in range(x2.n) if here[a0] == star]
    partners = {there[a0] for a0 in supporters if there[a0] != 0}
    keep = [a0 for a0 in range(x2.n) if here[a0] != star]
    new_here = tuple(here[a0] for a0 in keep)
    new_there = tuple(0 if there[a0] in partners else there[a0] for a0 in keep)
    budget = (x2.k1 if t == 1 else x2.k2) - 1
    if budget < 0:
        return None
    threshold = max(0, (x2.x1 if t == 1 else x2.x2) - len(supporters))
    if t == 1:
        return replace(
            x2, row1=new_here, row2=new_there, k1=budget, x1=threshold, forced1=x2.forced1 + (star,)
        )
    return replace(
        x2, row2=new_here, row1=new_there, k2=budget, x2=threshold, forced2=x2.forced2 + (star,)
    )


def apply_x2_rules(x2: X2Instance) -> X2Instance | None:
    """Both rules to a joint fixed point; None means resolved no.

    The first rule answers no where an agent has no nomination, since it can
    never reach target one; the second is ``rr_x2_force_single``.  The result
    equals that of alternating the two until neither changes anything,
    ``forced1`` and ``forced2`` order included, and it is the input itself
    when no agent nominates in only one level.  Single-nomination agents
    wait in a min-heap by agent index, so the next one popped is the first
    single agent the one-step rule would pick.  Forcing a candidate deletes
    its supporters, taken from a (level, candidate) index built once over
    every agent given, and erases each of their other-level nominations once
    through the same index; an agent that loses a nomination is pushed.  No
    agent is deleted, erased or pushed twice, so the cost is O(n log n) in
    the agents given.  Unless it answers no, it keeps exactly the agents
    outside vertex 0's component (see the module docstring), rows unchanged
    and in order: each forcing turns the other edges at its erased partners
    into edges at vertex 0, so the rules walk that component whole.
    """
    # a sorted list is already a heap
    single = [a0 for a0, pair in enumerate(zip(x2.row1, x2.row2)) if 0 in pair]
    if not single:
        return x2
    if any(x2.row1[a0] == x2.row2[a0] for a0 in single):  # both nominations missing
        return None
    # per level (index 1 and 2): nominations, and candidate -> its agents
    rows = (None, list(x2.row1), list(x2.row2))
    holders = (None, defaultdict(list), defaultdict(list))
    for a0, (one, two) in enumerate(zip(x2.row1, x2.row2)):
        holders[1][one].append(a0)
        holders[2][two].append(a0)
    budget = [None, x2.k1, x2.k2]
    threshold = [None, x2.x1, x2.x2]
    forced = (None, list(x2.forced1), list(x2.forced2))
    alive = [True] * x2.n
    while single:
        a0 = heappop(single)
        if not alive[a0]:
            continue
        t = 1 if rows[1][a0] else 2
        here, there = rows[t], rows[3 - t]
        star = here[a0]
        budget[t] -= 1
        if budget[t] < 0:
            return None
        # a candidate still nominated was never erased, so all its live
        # holders nominate it
        supporters = [b for b in holders[t].pop(star) if alive[b]]
        threshold[t] = max(0, threshold[t] - len(supporters))
        forced[t].append(star)
        for b in supporters:
            alive[b] = False
        partners = {there[b] for b in supporters if there[b]}
        for partner in partners:
            for b in holders[3 - t].pop(partner):
                if alive[b]:
                    there[b] = 0
                    if not here[b]:
                        return None
                    heappush(single, b)
    return replace(
        x2,
        row1=tuple(compress(rows[1], alive)),
        row2=tuple(compress(rows[2], alive)),
        k1=budget[1], k2=budget[2], x1=threshold[1], x2=threshold[2],
        forced1=tuple(forced[1]), forced2=tuple(forced[2]),
    )


@dataclass(frozen=True)
class CbivcsComponent:
    left: tuple[int, ...]
    right: tuple[int, ...]
    edge_count: int


def _components(
    row1: tuple[int, ...], row2: tuple[int, ...], sides: tuple[tuple[int, ...], ...] | None = None
) -> tuple[tuple[CbivcsComponent, ...], list[int] | None]:
    """The components of the graph whose edges are the agents' (left, right)
    nomination pairs, each counted with its multiplicity, except vertex 0's,
    and that component's vertex list (None if every agent nominates twice).
    ``sides``, if given, holds each row's distinct values in increasing
    order, as an instance's ``row_values`` does.

    Vertices are ints: left candidate u is vertex u and right candidate v is
    vertex -v, so a missing nomination on either side is vertex 0.  Each
    vertex maps to its component's member list, and a union moves the
    shorter list into the longer (union by size), so no vertex moves more
    than log2 V times and no lookup walks a parent chain.

    The pairs are read in blocks that double in length, each deduplicated by
    a set and merged only for the pairs no earlier block held.  While the
    graph read so far is one component, its size is compared with the
    number of the rows' distinct values (from ``sides``, or sorted from the
    rows once where it is not given); when the component holds them all, no
    later pair can change the answer, the rest of the rows is never read,
    and the component holds every agent.  A graph that never connects reads
    every pair and counts each component's edges as the degrees of its left
    vertices."""
    owner: dict[int, list[int]] = {}
    seen: set[tuple[int, int]] = set()
    pairs = zip(row1, row2)
    size = _FIRST_BLOCK
    while block := set(islice(pairs, size)):
        block -= seen
        seen |= block
        for u, v in block:
            v = -v
            a, b = owner.get(u), owner.get(v)
            if a is None:
                if b is None:
                    # an agent without any nomination is the loop (0, 0)
                    owner[u] = owner[v] = [u, v] if u != v else [u]
                else:
                    b.append(u)
                    owner[u] = b
            elif b is None:
                a.append(v)
                owner[v] = a
            elif a is not b:
                if len(a) < len(b):
                    a, b = b, a
                a += b
                for x in b:
                    owner[x] = a
        group = owner[row1[0]]
        if len(group) == len(owner):
            sides = sides or (tuple(sorted(set(row1))), tuple(sorted(set(row2))))
            lefts, rights = sides
            # sorted and nonnegative, so a side holds 0 iff it starts with it
            if len(group) == len(lefts) + len(rights) - (lefts[0] == rights[0] == 0):
                if 0 in owner:
                    return (), group
                return (CbivcsComponent(lefts, rights, len(row1)),), None
        size *= 2
    zero = owner.get(0)
    degree = Counter(row1)
    components = []
    for members in {id(group): group for group in owner.values()}.values():
        if members is zero:
            continue
        members.sort()
        # right vertices are negative, so they sort first
        split = bisect(members, 0)
        lefts = tuple(members[split:])
        rights = tuple(map(neg, reversed(members[:split])))
        components.append(CbivcsComponent(lefts, rights, sum(map(degree.__getitem__, lefts))))
    # every component but vertex 0's carries an edge between two candidates,
    # so both its sides are nonempty and no two share a first left candidate
    components.sort(key=lambda comp: comp.left[0])
    return tuple(components), zero


def build_cbivcs(x2: X2Instance) -> tuple[CbivcsComponent, ...]:
    """The components of the graph with agents as edges between their two
    nominations; rules must have run first so that every agent nominates at
    both levels.

    An agent without a nomination shows up as vertex 0 of the graph (see
    :func:`_components`), which reads the rows only until the graph is
    connected."""
    components, zero = _components(x2.row1, x2.row2)
    if zero is not None:
        raise ValueError("agents must nominate at both levels; apply the rules first")
    return components


def solve_cbivcs(
    x2: X2Instance, components: tuple[CbivcsComponent, ...]
) -> tuple[set[int], set[int]] | None:
    """The two committees, ``x2``'s forced candidates plus an independent
    vertex cover of ``components`` within ``x2``'s budgets and thresholds,
    or None; ``x2``'s rows are not read.

    The components must partition both sides, and an edge count includes
    parallel edges since degree must count agents.  Per component the cover
    is one full side, so the sweep tracks reachable (left-use, right-use,
    left-degree-sum) triples component by component; identical (|left|,
    |right|, edges) component types are batched, with j of a type's
    components taking the left side.  From each state only the j whose left
    sides fit the remaining left budget and whose count - j right sides fit
    the remaining right budget are enumerated, in increasing order, so no
    state over budget is ever built.  The lexicographically smallest
    accepting state is walked back into the cover.  Every component needs
    both sides nonempty, as every component of an agent graph has.
    """
    if x2.k1 < 0 or x2.k2 < 0:
        return None
    total = sum(comp.edge_count for comp in components)
    type_members: dict[tuple[int, int, int], list[CbivcsComponent]] = {}
    for comp in components:
        key = (len(comp.left), len(comp.right), comp.edge_count)
        type_members.setdefault(key, []).append(comp)

    stages: list[dict[tuple[int, int, int], tuple | None]] = [{(0, 0, 0): None}]
    for (n1, n2, m), members in type_members.items():
        count = len(members)
        nxt: dict[tuple[int, int, int], tuple | None] = {}
        for state in sorted(stages[-1]):
            k1u, k2u, x1s = state
            # j left sides cost j * n1 <= k1 - k1u, and count - j right
            # sides (count - j) * n2 <= k2 - k2u
            low = max(0, count - (x2.k2 - k2u) // n2)
            high = min(count, (x2.k1 - k1u) // n1)
            for j in range(low, high + 1):
                cand = (k1u + j * n1, k2u + (count - j) * n2, x1s + j * m)
                if cand not in nxt:
                    nxt[cand] = (state, j)
        if not nxt:
            return None
        stages.append(nxt)

    accepting = sorted(s for s in stages[-1] if s[2] >= x2.x1 and total - s[2] >= x2.x2)
    if not accepting:
        return None

    first, second = set(x2.forced1), set(x2.forced2)
    state = accepting[0]
    for stage, members in zip(reversed(stages), reversed(type_members.values())):
        state, j = stage[state]
        for comp in members[:j]:
            first.update(comp.left)
        for comp in members[j:]:
            second.update(comp.right)
    return first, second


def solve_qcse_tau2(inst: Instance) -> SolveResult:
    """Exact polynomial solver for equitable two-level instances."""
    if inst.y != 1 and inst.mode == EQUITABLE and inst.tau == 2:
        result = trivial_solve(inst)
        if result is None:
            raise AssertionError("y != 1 must hit a trivial case for tau = 2")
        return result
    x2 = x2_from_instance(inst)

    stats = {"forced": 0, "components": 0, "surviving_agents": 0}
    components, zero = _components(x2.row1, x2.row2, inst.row_values)
    if zero is not None:
        # the rules delete every agent of vertex 0's component or answer no
        mask = list(map(set(zero).__contains__, x2.row1))
        row1, row2 = tuple(compress(x2.row1, mask)), tuple(compress(x2.row2, mask))
        x2 = apply_x2_rules(replace(x2, row1=row1, row2=row2))
        if x2 is None:
            return SolveResult.no(stats)
    stats["forced"] = len(x2.forced1) + len(x2.forced2)
    # an agent outside vertex 0's component is an edge of exactly one other component
    stats["surviving_agents"] = sum(comp.edge_count for comp in components)
    stats["components"] = len(components)
    committees = solve_cbivcs(x2, components)
    if committees is None:
        return SolveResult.no(stats)
    return SolveResult.yes(CommitteeSequence.of(committees), stats)
