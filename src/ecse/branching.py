"""Fingerprint branching: one committee-budget solver for both modes.

A fingerprint of an agent fixes, per level, whether her nominee joins that
level's committee.  Guessing a fingerprint for one unsatisfied agent splits
an instance into at most 2^tau children in which the agent is gone, the
guessed candidates' budgets and thresholds are paid for, and every nomination
of a guessed-level candidate is erased (its fate is decided either way).  The
parent is a yes iff some child is, so depth-first search over fingerprints
decides the instance; depth is bounded by both the agent count and the total
committee budget.  One search loop serves both modes: equitable mode only
adds a prune of overshot agents and the zero-target rule at each node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .kernel import rr_pe_qcse_zero_y
from .model import (
    EGALITARIAN,
    EQUITABLE,
    CommitteeSequence,
    GuardExceeded,
    Instance,
    PeInstance,
    SolveResult,
    greedy_committee,
    lift,
    row_support,
)


@dataclass(frozen=True)
class Fingerprint:
    """Per-level election pattern of one agent's nominations."""

    bits: tuple[bool, ...]

    @property
    def popcount(self) -> int:
        return sum(self.bits)


def _nonzero_levels(pe: PeInstance, a0: int) -> list[int]:
    return [t0 for t0 in range(pe.tau) if pe.profile[t0][a0] != 0]


def _level_choices(pe: PeInstance, a0: int):
    """Elected-level sets of the eligible fingerprints of agent ``a0``, in
    (popcount, position) order: at least y_a levels in egalitarian mode,
    exactly y_a in equitable mode."""
    levels = _nonzero_levels(pe, a0)
    y = pe.yvec[a0]
    sizes = (y,) if pe.mode == EQUITABLE else range(y, len(levels) + 1)
    for size in sizes:
        yield from itertools.combinations(levels, size)


def _fingerprint_count(pe: PeInstance, a0: int) -> int:
    d = len(_nonzero_levels(pe, a0))
    y = pe.yvec[a0]
    if y > d:
        return 0
    if pe.mode == EQUITABLE:
        return comb(d, y)
    return sum(comb(d, size) for size in range(y, d + 1))


def agent_fingerprints(pe: PeInstance, a: int) -> list[Fingerprint]:
    """All eligible fingerprints of agent ``a`` (1-based), mode-aware."""
    a0 = a - 1
    if not 0 <= a0 < pe.n:
        raise IndexError(f"agent {a} out of range 1..{pe.n}")
    if pe.yvec[a0] <= 0:
        raise ValueError("fingerprints are branched only for positive targets")
    out = []
    for chosen in _level_choices(pe, a0):
        bits = tuple(t0 in chosen for t0 in range(pe.tau))
        out.append(Fingerprint(bits))
    return out


def _child(pe: PeInstance, a0: int, chosen: tuple[int, ...]) -> PeInstance:
    """The subinstance after committing agent ``a0`` to electing exactly its
    nominees at the ``chosen`` levels."""
    elected = {t0: pe.profile[t0][a0] for t0 in chosen}
    kvec = tuple(k - (1 if t0 in elected else 0) for t0, k in enumerate(pe.kvec))
    xvec = []
    for t0, x in enumerate(pe.xvec):
        if t0 in elected:
            x -= sum(1 for c in pe.profile[t0] if c == elected[t0])
        xvec.append(x)
    keep = [b0 for b0 in range(pe.n) if b0 != a0]
    yvec = []
    for b0 in keep:
        credit = sum(1 for t0 in chosen if pe.profile[t0][b0] == elected[t0])
        yvec.append(pe.yvec[b0] - credit)
    rows = []
    for t0, row in enumerate(pe.profile):
        mine = row[a0]
        rows.append(tuple(0 if (mine != 0 and row[b0] == mine) else row[b0] for b0 in keep))
    return PeInstance(
        pe.mode, pe.n - 1, pe.m, pe.tau, kvec, tuple(xvec), tuple(yvec), tuple(rows)
    )


def branch_children(pe: PeInstance, a: int) -> list[PeInstance]:
    """One child instance per eligible fingerprint of agent ``a``.

    The parent is a yes iff some child is.  Requires a positive remaining
    target and at least one eligible fingerprint.
    """
    a0 = a - 1
    if not 0 <= a0 < pe.n:
        raise IndexError(f"agent {a} out of range 1..{pe.n}")
    if pe.yvec[a0] <= 0:
        raise ValueError(f"agent {a} has no positive target to branch on")
    if pe.yvec[a0] > len(_nonzero_levels(pe, a0)):
        raise ValueError(f"agent {a} admits no eligible fingerprint")
    return [_child(pe, a0, chosen) for chosen in _level_choices(pe, a0)]


def _pick_agent(pe: PeInstance) -> int | None:
    """Open agent with the fewest eligible fingerprints (ties: lowest index);
    None when a positive-target agent has no fingerprint at all."""
    best = None
    best_count = None
    for a0 in range(pe.n):
        if pe.yvec[a0] <= 0:
            continue
        count = _fingerprint_count(pe, a0)
        if count == 0:
            return None
        if best_count is None or count < best_count:
            best, best_count = a0, count
    return best


def _merge(child_witness: list[set], chosen, elected) -> list[set]:
    for t0 in chosen:
        child_witness[t0] = child_witness[t0] | {elected[t0]}
    return child_witness


def _branch(pe: PeInstance) -> SolveResult:
    """Fingerprint DFS for both modes; the witness is reconstructed along
    the accepting path.

    Equitable mode adds two steps per node: an overshot agent (negative
    target) fails the node, and satisfied agents are removed eagerly, their
    candidates becoming forbidden.  A node where no target is left positive
    is decided by the greedy score-maximal committee per level; in
    equitable mode no agent is left there, so it accepts iff no positive
    threshold remains.  The search takes one frame per branched agent and
    raises :class:`GuardExceeded` when that outgrows Python's recursion limit.
    """
    equitable = pe.mode == EQUITABLE
    stats = {"nodes_expanded": 0, "fingerprints_tried": 0, "max_depth": 0, "max_children": 0}

    def node(cur: PeInstance, depth: int) -> list[set] | None:
        stats["nodes_expanded"] += 1
        if any(k < 0 for k in cur.kvec):
            return None
        if equitable and any(y < 0 for y in cur.yvec):
            return None
        # every surviving depth step burned committee budget and one agent
        stats["max_depth"] = max(stats["max_depth"], depth)
        if equitable:
            cur = rr_pe_qcse_zero_y(cur)
        if all(y <= 0 for y in cur.yvec):
            committees: list[set] = [set() for _ in range(cur.tau)]
            for t0 in range(cur.tau):
                if cur.xvec[t0] > 0:
                    support = row_support(cur.profile[t0])
                    top = greedy_committee(support, cur.kvec[t0])
                    if sum(support[c] for c in top) < cur.xvec[t0]:
                        return None
                    committees[t0] = set(top)
            return committees
        a0 = _pick_agent(cur)
        if a0 is None:
            return None
        children = 0
        for chosen in _level_choices(cur, a0):
            children += 1
            stats["fingerprints_tried"] += 1
            elected = {t0: cur.profile[t0][a0] for t0 in chosen}
            sub = node(_child(cur, a0, chosen), depth + 1)
            if sub is not None:
                stats["max_children"] = max(stats["max_children"], children)
                return _merge(sub, chosen, elected)
        stats["max_children"] = max(stats["max_children"], children)
        return None

    try:
        witness = node(pe, 0)
    except RecursionError:
        raise GuardExceeded("branching nests deeper than Python's recursion limit") from None
    if witness is None:
        return SolveResult.no(stats)
    return SolveResult.yes(CommitteeSequence.of(witness), stats)


def solve_pe_gcse_branch(pe: PeInstance) -> SolveResult:
    """Exact egalitarian branching solver; witness topped up greedily at the
    terminal."""
    if pe.mode != EGALITARIAN:
        raise ValueError("egalitarian solver got an equitable instance")
    return _branch(pe)


def solve_pe_qcse_branch(pe: PeInstance) -> SolveResult:
    """Exact equitable branching solver; the terminal accepts only when no
    agents and no positive thresholds remain."""
    if pe.mode != EQUITABLE:
        raise ValueError("equitable solver got an egalitarian instance")
    return _branch(pe)


def solve_branch(inst: Instance) -> SolveResult:
    """Branching solver on a plain instance (lift, then search)."""
    return _branch(lift(inst))
