"""Type-based integer program: few agents, arbitrarily many levels.

Levels with identical nomination rows are interchangeable, so the model
groups them into types and counts, per type, how many of its levels elect
each valid committee.  Feasibility of the program is equivalent to the
instance; it is decided here by depth-first search with constraint
propagation (exact, refused after a node budget) and can be exported in LP
text format for external solvers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .model import (
    MAX_NODES,
    Committee,
    CommitteeSequence,
    Instance,
    SolveResult,
    UndecidedError,
    dfs,
    rename_candidates,
    row_support,
    valid_committees,
)

VarKey = tuple[int, int]  # (type index, committee index), both 0-based


@dataclass(frozen=True)
class IpModel:
    """Integer program over variables x[type, committee].

    Constraints: per agent, the variables whose committee respects the
    agent's nomination in that type sum to at least (egalitarian) or exactly
    (equitable) ``y``; per type, all variables sum to the type's level count,
    ``len(type_levels[ti])``; every variable ranges over 0..count.
    """

    equitable: bool
    y: int
    type_levels: tuple[tuple[int, ...], ...]  # 1-based level indices per type
    committees: tuple[tuple[Committee, ...], ...]  # valid committees per type
    agent_vars: tuple[tuple[VarKey, ...], ...]  # X_a per agent, so n entries

    @property
    def num_types(self) -> int:
        return len(self.type_levels)

    @property
    def num_variables(self) -> int:
        return sum(len(cs) for cs in self.committees)


def build_ip(inst: Instance) -> IpModel:
    """Group levels into types and enumerate each type's valid committees.

    Types are ordered by first occurrence; the enumeration raises
    :class:`EnumerationLimitError` where :func:`valid_committees` refuses.
    """
    levels_of: dict[tuple[int, ...], list[int]] = {}
    for t, row in enumerate(inst.profile, 1):
        levels_of.setdefault(row, []).append(t)
    committees: list[tuple[Committee, ...]] = []
    agent_vars: list[list[VarKey]] = [[] for _ in range(inst.n)]
    for ti, row in enumerate(levels_of):
        committees.append(tuple(valid_committees(row_support(row), inst.k, inst.x)))
        holders: dict[int, list[int]] = {}  # candidate -> agents nominating it
        for a0, c in enumerate(row):
            holders.setdefault(c, []).append(a0)
        for ci, committee in enumerate(committees[ti]):
            for c in committee:
                for a0 in holders[c]:
                    agent_vars[a0].append((ti, ci))
    return IpModel(
        not inst.egalitarian,
        inst.y,
        tuple(map(tuple, levels_of.values())),
        tuple(committees),
        tuple(map(tuple, agent_vars)),
    )


def solve_ip_naive(model: IpModel, max_nodes: int = MAX_NODES) -> dict[VarKey, int] | None:
    """Feasible assignment by depth-first value search, or None.

    Variables are visited type by type in committee order; the last variable
    of a type is forced by the type-sum constraint.  Agent constraints prune
    via running sums and optimistic remaining capacity.  The search runs
    through :func:`ecse.model.dfs`, one node per variable prefix, and raises
    :class:`UndecidedError` when ``max_nodes`` search nodes are exhausted.
    """
    order: list[VarKey] = [
        (ti, ci) for ti in range(model.num_types) for ci in range(len(model.committees[ti]))
    ]
    for ti in range(model.num_types):
        if not model.committees[ti] and model.type_levels[ti]:
            return None  # type-sum constraint unsatisfiable

    # var -> agents whose constraint it feeds
    consumers: dict[VarKey, list[int]] = {key: [] for key in order}
    for a0, pairs in enumerate(model.agent_vars):
        for key in pairs:
            consumers[key].append(a0)

    assignment: dict[VarKey, int] = {}
    remaining = list(map(len, model.type_levels))  # capacity left per type
    agent_sum = [0] * len(model.agent_vars)
    open_by_type = [Counter(ti for ti, _ in pairs) for pairs in model.agent_vars]

    def optimistic(a0: int) -> int:
        bound = agent_sum[a0]
        for ti, open_count in open_by_type[a0].items():
            if open_count > 0:
                bound += remaining[ti]
        return bound

    def feasible_so_far() -> bool:
        for a0 in range(len(model.agent_vars)):
            if model.equitable and agent_sum[a0] > model.y:
                return False
            if optimistic(a0) < model.y:
                return False
        return True

    def expand(idx: int):
        if not feasible_so_far():
            return False
        # each type's last variable takes the rest of its levels
        return idx == len(order) or values(idx)

    def values(idx: int):
        """Assign each value of variable ``idx`` in turn, then undo it."""
        key = ti, ci = order[idx]
        last_of_type = ci == len(model.committees[ti]) - 1
        for value in [remaining[ti]] if last_of_type else range(remaining[ti] + 1):
            assignment[key] = value
            remaining[ti] -= value
            for a0 in consumers[key]:
                agent_sum[a0] += value
                open_by_type[a0][ti] -= 1
            yield idx + 1
            for a0 in consumers[key]:
                agent_sum[a0] -= value
                open_by_type[a0][ti] += 1
            remaining[ti] += value
            del assignment[key]

    return dict(assignment) if dfs(0, expand, max_nodes) else None


def lift_ip_witness(model: IpModel, assignment: dict[VarKey, int]) -> CommitteeSequence:
    """Distribute each type's committee counts over its (interchangeable)
    levels, in level order and canonical committee order."""
    committees: list[Committee | None] = [None] * sum(map(len, model.type_levels))
    for ti, levels in enumerate(model.type_levels):
        queue: list[Committee] = []
        for ci, committee in enumerate(model.committees[ti]):
            queue.extend([committee] * assignment.get((ti, ci), 0))
        if len(queue) != len(levels):
            raise ValueError("assignment does not cover the type's levels")
        for t, committee in zip(levels, queue):
            committees[t - 1] = committee
    return CommitteeSequence(tuple(committees))


def solve_ip(inst: Instance, max_nodes: int = MAX_NODES) -> SolveResult:
    """Rename, build, search, and lift back to original candidate ids."""
    renamed, renaming = rename_candidates(inst)
    model = build_ip(renamed)
    assignment = solve_ip_naive(model, max_nodes=max_nodes)
    stats = {
        "types": model.num_types,
        "variables": model.num_variables,
    }
    if assignment is None:
        return SolveResult.no(stats)
    witness = renaming.lift(lift_ip_witness(model, assignment))
    return SolveResult.yes(witness, stats)


def export_lp(model: IpModel) -> str:
    """Serialize the program in LP text format.

    Variables are named ``x_t<type>_c<committee>`` (1-based); agent rows come
    first, then the type sums, then bounds and integrality.  A row with no
    eligible variable is written as a zero-coefficient row (the standard way
    to spell an empty sum in LP text) on the first variable, or, when the
    model has none, on a placeholder ``x_none`` fixed to 0.
    """
    names = {
        (ti, ci): f"x_t{ti + 1}_c{ci + 1}"
        for ti in range(model.num_types)
        for ci in range(len(model.committees[ti]))
    }
    empty_sum = f"0 {next(iter(names.values()), 'x_none')}"
    op = "=" if model.equitable else ">="
    lines = ["Minimize", " obj: 0", "Subject To"]
    for a0, pairs in enumerate(model.agent_vars):
        expr = " + ".join(names[key] for key in pairs) or empty_sum
        lines.append(f" a{a0 + 1}: {expr} {op} {model.y}")
    for ti, committees in enumerate(model.committees):
        expr = " + ".join(names[(ti, ci)] for ci in range(len(committees))) or empty_sum
        lines.append(f" t{ti + 1}: {expr} = {len(model.type_levels[ti])}")
    lines.append("Bounds")
    if not names and (model.agent_vars or model.committees):
        lines.append(" 0 <= x_none <= 0")
    for (ti, _), name in names.items():
        lines.append(f" 0 <= {name} <= {len(model.type_levels[ti])}")
    lines.append("General")
    lines += [f" {name}" for name in names.values()]
    lines.append("End")
    return "\n".join(lines) + "\n"
