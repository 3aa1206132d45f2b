"""Polynomial solver for equitable elections with exactly two levels.

With target one, an agent nominating in a single level forces that candidate,
and after the forcing rules every agent nominates in both levels.  Candidates
then become vertices of a bipartite graph (one side per level) and agents its
edges; a solution is an independent vertex cover respecting per-side budgets
whose degree sums reach the remaining per-level thresholds.  In every
connected component such a cover takes exactly one full side, so a sweep over
components with reachable (budget, budget, score) triples decides the graph
problem in polynomial time.

The forcing rules run as a worklist, as unit propagation does for Horn
clauses: an index from (level, candidate) to agents is built once, each
forcing deletes its supporters and erases each partner nomination through
that index, and agents left with one nomination join a heap.  Every agent is
deleted, erased and pushed at most once, so the rules cost O(n log n).  The
graph is built over distinct (level-1, level-2) nomination pairs, so the
components are merged once per pair, not once per agent.  Its vertices are
plain ints, level-1 candidate u as u and level-2 candidate v as -v, so no
(side, candidate) tuple is built or hashed per lookup; the cover that
:func:`solve_cbivcs` returns still names (side, candidate) pairs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from itertools import compress

from .model import (
    EQUITABLE,
    CommitteeSequence,
    Instance,
    SolveResult,
    trivial_solve,
)

Vertex = tuple[int, int]  # (level side 1|2, candidate id)


@dataclass(frozen=True)
class X2Instance:
    """Two-level equitable instance with independent per-level bounds and a
    log of force-elected candidates."""

    n: int
    m: int
    row1: tuple[int, ...]
    row2: tuple[int, ...]
    k1: int
    k2: int
    x1: int
    x2: int
    y: int
    forced1: tuple[int, ...] = ()
    forced2: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.row1) != self.n or len(self.row2) != self.n:
            raise ValueError("rows must have one entry per agent")


def x2_from_instance(inst: Instance) -> X2Instance:
    if inst.mode != EQUITABLE or inst.tau != 2:
        raise ValueError("expected an equitable two-level instance")
    return X2Instance(
        inst.n, inst.m, inst.profile[0], inst.profile[1], inst.k, inst.k, inst.x, inst.x, inst.y
    )


def rr_x2_no_nomination(x2: X2Instance) -> X2Instance | None:
    """An agent without any nomination can never reach target one: None
    (meaning: resolved no) if such an agent exists, else the input."""
    if x2.y != 1:
        raise ValueError("rule applies to target-one instances")
    if 0 in x2.row1 and (0, 0) in zip(x2.row1, x2.row2):
        return None
    return x2


def rr_x2_force_single(x2: X2Instance) -> X2Instance | None:
    """Force the nominee of the first single-nomination agent.

    The candidate is recorded as elected, its level's budget and threshold
    are paid (threshold clamps at zero), its supporters are deleted, and
    every other-level nomination those supporters held is erased everywhere
    (electing one would overshoot a deleted agent).  Returns the input
    unchanged when no agent qualifies, None when the budget goes negative.
    """
    if x2.y != 1:
        raise ValueError("rule applies to target-one instances")
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
    fields = {"n": len(keep)}
    if t == 1:
        fields.update(
            row1=new_here, row2=new_there, k1=budget, x1=threshold,
            forced1=x2.forced1 + (star,),
        )
    else:
        fields.update(
            row2=new_here, row1=new_there, k2=budget, x2=threshold,
            forced2=x2.forced2 + (star,),
        )
    return replace(x2, **fields)


def apply_x2_rules(x2: X2Instance) -> X2Instance | None:
    """Both rules to a joint fixed point; None means resolved no.

    The result equals that of alternating ``rr_x2_no_nomination`` and
    ``rr_x2_force_single`` until neither changes anything, ``forced1`` and
    ``forced2`` order included, and it is the input itself when no agent
    nominates in only one level.  Single-nomination agents wait in a min-heap
    by agent index, so the next one popped is the first single agent the
    one-step rule would pick.  Forcing a candidate deletes its supporters,
    taken from a (level, candidate) index built once, and erases each of
    their other-level nominations once through the same index; an agent that
    loses a nomination is pushed.  No agent is deleted, erased or pushed
    twice, so the cost is O(n log n).
    """
    if rr_x2_no_nomination(x2) is None:
        return None
    if 0 not in x2.row1 and 0 not in x2.row2:
        return x2
    # a sorted list is already a heap
    single = [a0 for a0, pair in enumerate(zip(x2.row1, x2.row2)) if 0 in pair]
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
        n=sum(alive),
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


@dataclass(frozen=True)
class CbivcsInstance:
    """Bipartite budget/score cover instance with its component index.

    Each component lists its candidates per side; its edge count includes
    parallel edges since degree must count agents.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    k1: int
    k2: int
    x1: int
    x2: int
    components: tuple[CbivcsComponent, ...]


def _components(pairs: Counter) -> tuple[CbivcsComponent, ...]:
    """Connected components of the graph whose edges are the distinct
    (left, right) nomination pairs, each counted with its multiplicity.

    Vertices are ints: left candidate u is vertex u and right candidate v is
    vertex -v (ids are positive once the zero check has passed).  Each vertex
    maps to its component's member list, and a union moves the shorter list
    into the longer (union by size), so no vertex moves more than log2 V
    times and no lookup walks a parent chain."""
    owner: dict[int, list[int]] = {}
    for u, v in pairs:
        v = -v
        a, b = owner.get(u), owner.get(v)
        if a is None:
            if b is None:
                owner[u] = owner[v] = [u, v]
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
    edge_counts: Counter = Counter()
    for (u, _), count in pairs.items():
        edge_counts[id(owner[u])] += count
    components = []
    for members in {id(group): group for group in owner.values()}.values():
        members.sort()
        lefts = tuple(c for c in members if c > 0)
        rights = tuple(-c for c in reversed(members) if c < 0)
        components.append(CbivcsComponent(lefts, rights, edge_counts[id(members)]))
    # every component carries at least one edge, so both sides are nonempty
    components.sort(key=lambda comp: (comp.left[0], comp.right[0]))
    return tuple(components)


def build_cbivcs(x2: X2Instance) -> CbivcsInstance:
    """Agents as edges between their two nominations; rules must have run
    first so that every agent nominates at both levels.

    The agents are counted into distinct nomination pairs first; the zero
    check and both sides are read off the pairs, not the rows."""
    pairs = Counter(zip(x2.row1, x2.row2))
    lefts = {u for u, _ in pairs}
    rights = {v for _, v in pairs}
    if 0 in lefts or 0 in rights:
        raise ValueError("agents must nominate at both levels; apply the rules first")
    if x2.y != 1:
        raise ValueError("the graph reduction applies to target-one instances")
    left = tuple(sorted(lefts))
    right = tuple(sorted(rights))
    return CbivcsInstance(left, right, x2.k1, x2.k2, x2.x1, x2.x2, _components(pairs))


def solve_cbivcs(g: CbivcsInstance) -> set[Vertex] | None:
    """Independent vertex cover within budgets and score targets, or None.

    Per component the cover is one full side, so the sweep tracks reachable
    (left-use, right-use, left-degree-sum) triples component by component;
    identical (|left|, |right|, edges) component types are batched, with j of
    a type's components taking the left side.  States over budget are cut
    (budgets only grow); the lexicographically smallest accepting state is
    walked back into the cover.
    """
    if g.k1 < 0 or g.k2 < 0:
        return None
    total = sum(comp.edge_count for comp in g.components)
    type_members: dict[tuple[int, int, int], list[CbivcsComponent]] = {}
    for comp in g.components:
        key = (len(comp.left), len(comp.right), comp.edge_count)
        type_members.setdefault(key, []).append(comp)

    stages: list[dict[tuple[int, int, int], tuple | None]] = [{(0, 0, 0): None}]
    for (n1, n2, m), members in type_members.items():
        count = len(members)
        nxt: dict[tuple[int, int, int], tuple | None] = {}
        for state in sorted(stages[-1]):
            k1u, k2u, x1s = state
            for j in range(count + 1):
                cand = (k1u + j * n1, k2u + (count - j) * n2, x1s + j * m)
                if cand[0] > g.k1 or cand[1] > g.k2:
                    continue
                if cand not in nxt:
                    nxt[cand] = (state, j)
        if not nxt:
            return None
        stages.append(nxt)

    accepting = sorted(s for s in stages[-1] if s[2] >= g.x1 and total - s[2] >= g.x2)
    if not accepting:
        return None

    cover: set[Vertex] = set()
    state = accepting[0]
    for stage, members in zip(reversed(stages), reversed(type_members.values())):
        prev, j = stage[state]
        for pos, comp in enumerate(members):
            if pos < j:
                cover.update((1, c) for c in comp.left)
            else:
                cover.update((2, c) for c in comp.right)
        state = prev
    return cover


def solve_qcse_tau2(inst: Instance) -> SolveResult:
    """Exact polynomial solver for equitable two-level instances."""
    x2 = x2_from_instance(inst)
    if inst.y != 1:
        result = trivial_solve(inst)
        if result is None:
            raise AssertionError("y != 1 must hit a trivial case for tau = 2")
        return result

    stats = {"forced": 0, "components": 0, "surviving_agents": 0}
    x2 = apply_x2_rules(x2)
    if x2 is None:
        return SolveResult.no(stats)
    stats["forced"] = len(x2.forced1) + len(x2.forced2)
    stats["surviving_agents"] = x2.n
    graph = build_cbivcs(x2)
    stats["components"] = len(graph.components)
    cover = solve_cbivcs(graph)
    if cover is None:
        return SolveResult.no(stats)
    first = set(x2.forced1) | {c for side, c in cover if side == 1}
    second = set(x2.forced2) | {c for side, c in cover if side == 2}
    return SolveResult.yes(CommitteeSequence.of([first, second]), stats)
