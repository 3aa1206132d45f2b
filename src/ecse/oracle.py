"""Brute-force reference solvers.

These are the ground truth for every property test in the suite.  They are
deliberately plain: per level the committees that meet the level constraints
are enumerated, then one depth-first search over the level product checks
the agent targets, with only the obvious dead-branch cuts (an agent that can
no longer reach, or has already passed, its target).  Both entry points
share that search; :func:`brute_solve` renames a plain instance's candidates
first and maps its witness back.  Nothing here is shared with the optimized
solvers beyond the data model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import gt, lt

from .model import (
    CMP_EQ,
    CMP_GE,
    CMP_LE,
    COMPARATORS,
    CommitteeSequence,
    ComparatorSpec,
    GuardExceeded,
    Instance,
    PeInstance,
    SolveResult,
    enumerate_valid_committees,
    rename_candidates,
)


class OracleLimitError(GuardExceeded):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class OracleLimits:
    max_n: int = 8
    max_m: int = 8
    max_tau: int = 6

    def __post_init__(self):
        if min(self.max_n, self.max_m, self.max_tau) < 1:
            raise ValueError("limits must be positive")


DEFAULT_LIMITS = OracleLimits()


def _satisfied(row: tuple[int, ...], committee: tuple[int, ...]) -> list[int]:
    chosen = set(committee)
    return [a0 for a0, c in enumerate(row) if c != 0 and c in chosen]


def _floors(profile, yvec) -> list[list[int]]:
    """floor[t][a]: the score agent a must already have on entering level t,
    i.e. its target less the levels >= t in which it nominates someone."""
    floor = [list(yvec)]
    for row in reversed(profile):
        floor.append([need - (c != 0) for need, c in zip(floor[-1], row)])
    floor.reverse()
    return floor


def _search(profile, options, yvec, cmp_y, stats) -> list[tuple[int, ...]] | None:
    """DFS over per-level committee options.

    ``options[t]`` holds the (committee, satisfied-agents) pairs that already
    meet level ``t``'s constraints; ``cmp_y`` relates each agent's score to
    its target.  The first feasible sequence in enumeration order is
    returned.
    """
    tau = len(profile)
    floor = _floors(profile, yvec)
    must_reach = cmp_y in (CMP_GE, CMP_EQ)
    must_not_pass = cmp_y in (CMP_LE, CMP_EQ)
    scores = [0] * len(yvec)
    chosen: list[tuple[int, ...]] = []

    def rec(t0: int) -> bool:
        stats["nodes"] += 1
        # dead branches: an agent can no longer reach, or has passed, its target
        if must_reach and any(map(lt, scores, floor[t0])):
            return False
        if must_not_pass and any(map(gt, scores, yvec)):
            return False
        if t0 == tau:
            return True
        for committee, sats in options[t0]:
            chosen.append(committee)
            for a0 in sats:
                scores[a0] += 1
            if rec(t0 + 1):
                return True
            for a0 in sats:
                scores[a0] -= 1
            chosen.pop()
        return False

    return list(chosen) if rec(0) else None


def _finish(found, stats) -> SolveResult:
    if found is None:
        return SolveResult.no(stats)
    return SolveResult.yes(CommitteeSequence(tuple(found)), stats)


def brute_solve(inst: Instance | PeInstance, limits: OracleLimits | None = None) -> SolveResult:
    """Exact verdict by exhaustion, witness included on yes.

    A plain instance has its candidates renamed first, so the limits apply
    to the candidates actually nominated; it is then searched as its own
    vectors, and the witness mapped back to the original ids.

    Each level's options are its valid committees: nominated candidates
    only, at most ``kvec[t]`` of them, scoring at least ``xvec[t]``.  A
    negative budget (pre-elected instances only) admits no committee at
    all, so any such level makes the instance a no.  The candidate limit
    applies to the distinct candidates nominated per level.
    """
    renaming = None
    if isinstance(inst, Instance):
        inst, renaming = rename_candidates(inst)
    limits = limits or DEFAULT_LIMITS
    effective_m = max((len(values) - (0 in values) for values in inst.row_values), default=0)
    if inst.n > limits.max_n or effective_m > limits.max_m or inst.tau > limits.max_tau:
        raise OracleLimitError(
            f"n={inst.n}, m={effective_m} (effective), tau={inst.tau} exceed limits {limits}"
        )
    options = []
    total = 0
    for t, row in enumerate(inst.profile, start=1):
        committees = enumerate_valid_committees(inst, t)
        total += len(committees)
        options.append([(c, _satisfied(row, c)) for c in committees])

    stats = {"nodes": 0, "committees_enumerated": total}
    cmp_y = CMP_GE if inst.egalitarian else CMP_EQ
    result = _finish(_search(inst.profile, options, inst.yvec, cmp_y, stats), stats)
    if renaming is None or result.witness is None:
        return result
    return SolveResult.yes(renaming.lift(result.witness), stats)


def brute_solve_generalized(
    inst: Instance, spec: ComparatorSpec, limits: OracleLimits | None = None
) -> SolveResult:
    """Exhaustive solver for an arbitrary comparator triple.

    Size constraints other than ``<=`` may force unnominated candidates into
    a committee, so enumeration runs over the full candidate set here.
    """
    limits = limits or DEFAULT_LIMITS
    if inst.n > limits.max_n or inst.m > limits.max_m or inst.tau > limits.max_tau:
        raise OracleLimitError(f"n={inst.n}, m={inst.m}, tau={inst.tau} exceed limits {limits}")

    everyone = list(range(1, inst.m + 1))
    sizes = [s for s in range(inst.m + 1) if COMPARATORS[spec.cmp_k](s, inst.k)]
    base = [c for size in sizes for c in itertools.combinations(everyone, size)]

    options = []
    for row in inst.profile:
        pairs = ((c, _satisfied(row, c)) for c in base)
        options.append([(c, sats) for c, sats in pairs if COMPARATORS[spec.cmp_x](len(sats), inst.x)])
    stats = {"nodes": 0, "committees_enumerated": len(base) * inst.tau}
    return _finish(_search(inst.profile, options, inst.yvec, spec.cmp_y, stats), stats)
