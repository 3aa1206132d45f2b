"""Fingerprint branching: one committee-budget solver for both modes.

A fingerprint of an agent fixes, per level, whether her nominee joins that
level's committee.  Guessing a fingerprint for one unsatisfied agent splits
an instance into at most 2^tau children in which the agent is gone, the
guessed candidates' budgets and thresholds are paid for, and every nomination
of a guessed-level candidate is erased (its fate is decided either way).  The
parent is a yes iff some child is, so depth-first search over fingerprints
decides the instance; depth is bounded by both the agent count and the total
committee budget.  One search loop serves both modes: equitable mode only
adds a prune of overshot agents, and drops satisfied agents as each child is
built, so the zero-target rule runs once, at the root.

Every node whose budgets (and, in equitable mode, targets) are nonnegative
is tested by :func:`ecse.model.counting_bound` before it branches.  The
bound refutes by counting alone and, where no target is left open, decides
the node outright; its docstring says why a refuted node has no yes below it.
"""

from __future__ import annotations

import itertools
from math import comb

from .kernel import rr_pe_qcse_zero_y, strike_agents
from .model import (
    EQUITABLE,
    MAX_NODES,
    CommitteeSequence,
    Instance,
    PeInstance,
    SolveResult,
    _check_agent,
    counting_bound,
    dfs,
    greedy_committee,
    lift,
    row_support,
)


def _level_choices(pe: PeInstance, a0: int):
    """Elected-level sets of the eligible fingerprints of agent ``a0``, in
    (popcount, position) order: at least y_a levels in egalitarian mode,
    exactly y_a in equitable mode."""
    levels = [t0 for t0, row in enumerate(pe.profile) if row[a0] != 0]
    y = pe.yvec[a0]
    sizes = (y,) if pe.mode == EQUITABLE else range(y, len(levels) + 1)
    for size in sizes:
        yield from itertools.combinations(levels, size)


def _child(pe: PeInstance, a0: int, chosen: tuple[int, ...]) -> PeInstance:
    """The subinstance after committing agent ``a0`` to electing exactly its
    nominees at the ``chosen`` levels.

    Each chosen level pays one unit of budget, and its nominee's supporters
    each pay one unit of threshold and of their own target.  Agent ``a0`` is
    struck; in equitable mode so is every agent whose target is now zero.
    That equals applying the zero-target rule to the child with only ``a0``
    struck: a satisfied agent's nominee at a level is either ``a0``'s, which
    is erased anyway, or forbidden by that agent.  The rule changes no bound,
    so the child is its own fixpoint, and an overshot agent (negative target)
    is kept for the search to prune.
    """
    kvec, xvec, yvec = list(pe.kvec), list(pe.xvec), list(pe.yvec)
    for t0 in chosen:
        row = pe.profile[t0]
        mine = row[a0]
        kvec[t0] -= 1
        for b0, c in enumerate(row):
            if c == mine:
                xvec[t0] -= 1
                yvec[b0] -= 1
    drop = {a0}
    if pe.mode == EQUITABLE:
        drop.update(b0 for b0, y in enumerate(yvec) if y == 0)
    return strike_agents(pe, drop, kvec, xvec, yvec)


def branch_children(pe: PeInstance, a: int) -> list[PeInstance]:
    """One child instance per eligible fingerprint of agent ``a``.

    The parent is a yes iff some child is.  Equitable children come without
    satisfied agents (the zero-target rule is already applied).  Requires a
    positive remaining target and at least one eligible fingerprint.
    """
    _check_agent(pe, a)
    a0 = a - 1
    if pe.yvec[a0] <= 0:
        raise ValueError(f"agent {a} has no positive target to branch on")
    if pe.yvec[a0] > sum(1 for row in pe.profile if row[a0] != 0):
        raise ValueError(f"agent {a} admits no eligible fingerprint")
    return [_child(pe, a0, chosen) for chosen in _level_choices(pe, a0)]


def _pick_agent(pe: PeInstance) -> int | None:
    """Open agent with the fewest eligible fingerprints (ties: lowest index),
    counted in one pass over the columns; None at the first open agent
    without any."""
    equitable = pe.mode == EQUITABLE
    best = best_count = None
    for a0, (y, column) in enumerate(zip(pe.yvec, zip(*pe.profile))):
        if y > 0:
            d = len(column) - column.count(0)
            count = comb(d, y) if equitable else sum(comb(d, s) for s in range(y, d + 1))
            if count == 0:
                return None
            if best is None or count < best_count:
                best, best_count = a0, count
    return best


def solve_branch(inst: Instance | PeInstance, max_nodes: int = MAX_NODES) -> SolveResult:
    """Fingerprint DFS for both modes and both instance types (a plain
    instance is lifted first); the witness is rebuilt along the accepting
    path.

    Equitable mode adds two steps: an overshot agent (negative target) fails
    the node, and satisfied agents are removed eagerly, their candidates
    becoming forbidden; the zero-target rule does so once for the root, and
    each child is built without them.  Every node with nonnegative budgets
    must pass :func:`~ecse.model.counting_bound`; one that passes without
    an open target accepts, and its levels take their greedy score-maximal
    committees.  A refuted node counts in ``nodes_expanded``, and in
    ``bound_prunes`` if some target is still open.  The search runs through
    :func:`ecse.model.dfs`, which raises :class:`~ecse.model.UndecidedError`
    after ``max_nodes`` nodes.
    """
    pe = lift(inst) if isinstance(inst, Instance) else inst
    equitable = pe.mode == EQUITABLE
    stats = {
        "nodes_expanded": 0, "fingerprints_tried": 0, "max_depth": 0, "max_children": 0,
        "bound_prunes": 0,
    }
    path: list[tuple[PeInstance, int, tuple[int, ...]]] = []  # (node, agent, chosen levels)
    leaf: list[PeInstance] = []  # the accepting node

    def expand(cur: PeInstance):
        stats["nodes_expanded"] += 1
        if any(k < 0 for k in cur.kvec) or (equitable and any(y < 0 for y in cur.yvec)):
            return False
        # every surviving depth step burned committee budget and one agent
        stats["max_depth"] = max(stats["max_depth"], len(path))
        open_target = any(y > 0 for y in cur.yvec)
        if not counting_bound(cur):
            stats["bound_prunes"] += open_target
            return False
        if not open_target:
            leaf.append(cur)
            return True
        a0 = _pick_agent(cur)
        return a0 is not None and children(cur, a0)

    def children(cur: PeInstance, a0: int):
        for count, chosen in enumerate(_level_choices(cur, a0), 1):
            stats["fingerprints_tried"] += 1
            stats["max_children"] = max(stats["max_children"], count)
            path.append((cur, a0, chosen))
            yield _child(cur, a0, chosen)
            path.pop()

    if not dfs(rr_pe_qcse_zero_y(pe) if equitable else pe, expand, max_nodes):
        return SolveResult.no(stats)
    committees = [
        set(greedy_committee(row_support(row), k)) if x > 0 else set()
        for row, k, x in zip(leaf[0].profile, leaf[0].kvec, leaf[0].xvec)
    ]
    for cur, a0, chosen in path:
        for t0 in chosen:
            committees[t0].add(cur.profile[t0][a0])
    return SolveResult.yes(CommitteeSequence.of(committees), stats)
