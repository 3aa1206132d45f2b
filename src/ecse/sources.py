"""Reference solvers for the reduction source problems.

Small exhaustive checkers for SAT, exactly-1-in-3 SAT, constrained bipartite
vertex cover and 3-Partition.  They anchor the reduction-soundness harness:
for every generator, the source verdict computed here must match the brute
verdict of the generated election.
"""

from __future__ import annotations

import itertools

from .generators import BipartiteGraph, CnfFormula


def _exhaustive(cnf: CnfFormula, holds, cap_message: str) -> bool:
    """Is there an assignment under which ``holds`` accepts each clause's
    count of true literal occurrences?"""
    if cnf.num_vars > 20:
        raise ValueError(cap_message)
    for assignment in itertools.product((False, True), repeat=cnf.num_vars):
        if all(
            holds(sum((lit > 0) == assignment[abs(lit) - 1] for lit in clause))
            for clause in cnf.clauses
        ):
            return True
    return False


def sat_satisfiable(cnf: CnfFormula) -> bool:
    return _exhaustive(cnf, bool, "exhaustive SAT check capped at 20 variables")


def x13sat_satisfiable(cnf: CnfFormula) -> bool:
    """Exactly one true literal occurrence per clause (occurrences count,
    so a repeated literal counts as often as it appears)."""
    return _exhaustive(cnf, (1).__eq__, "exhaustive check capped at 20 variables")


def cbvc_has_cover(graph: BipartiteGraph, k1: int, k2: int) -> bool:
    """Is there a vertex cover taking at most k1 left and k2 right vertices?

    Enumerates left subsets; the right side is then forced to the endpoints
    of the uncovered edges.
    """
    if graph.n1 > 16:
        raise ValueError("exhaustive cover check capped at 16 left vertices")
    left = list(range(1, graph.n1 + 1))
    for r in range(0, min(k1, graph.n1) + 1):
        for chosen in itertools.combinations(left, r):
            in_cover = set(chosen)
            forced = {v for u, v in graph.edges if u not in in_cover}
            if len(forced) <= k2:
                return True
    return False


def three_partition_exists(values: list[int]) -> bool:
    """Can the multiset be split into triples of equal sum?"""
    if len(values) % 3 or not values:
        return False
    groups = len(values) // 3
    total = sum(values)
    if total % groups:
        return False
    target = total // groups

    remaining = sorted(values, reverse=True)

    def rec(left: tuple[int, ...]) -> bool:
        if not left:
            return True
        first = left[0]
        rest = left[1:]
        for i, j in itertools.combinations(range(len(rest)), 2):
            if first + rest[i] + rest[j] == target:
                nxt = tuple(v for idx, v in enumerate(rest) if idx not in (i, j))
                if rec(nxt):
                    return True
        return False

    return rec(tuple(remaining))
