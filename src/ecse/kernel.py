"""Data reduction: the egalitarian level kernel and the zero-target rule.

The egalitarian kernel hinges on agent criticality.  ``Z(a)`` collects the
levels in which some valid committee contains agent a's nominee; since scores
are additive, the score-maximal committee through a fixed candidate is its
greedy completion, so membership is a polynomial check.  An agent with more
than ``n * y`` such levels is never a bottleneck (non-critical); once every
agent is non-critical the instance is a guaranteed yes, and a level that no
critical agent can use may be dropped.  Exhaustive application leaves at most
``n^2 * y`` levels.

Exhaustive deletion runs as one sweep over the levels, with criticality
computed once.  Whether a level is usable for an agent depends on that level
alone, so a deletion only lowers the counts ``|Z(a)|`` of the agents that
could use it: a critical agent stays critical, a needed level (one some
critical agent can use) stays needed, and "nobody is critical" can only hold
before the first deletion.  Deleting each unneeded level as the sweep reaches
it, and promoting agents whose count falls to ``n * y``, thus deletes exactly
what repeatedly deleting the first unneeded level would.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    EGALITARIAN,
    EQUITABLE,
    CommitteeSequence,
    Instance,
    PeInstance,
    _top_score,
    greedy_committee,
    rename_candidates,
    row_support,
)


@dataclass(frozen=True)
class CriticalityTable:
    """Per agent: the usable-level set Z(a) (1-based) and the critical flag
    (|Z(a)| <= n*y)."""

    z_sets: tuple[tuple[int, ...], ...]
    critical: tuple[bool, ...]
    threshold: int


@dataclass(frozen=True)
class KernelResult:
    """Either a resolved verdict (with witness on yes) or a reduced instance.

    ``kept_levels``/``deleted_levels`` partition the original level indices;
    the reduced instance is expressed over renamed candidate ids.
    """

    verdict: str | None
    witness: CommitteeSequence | None
    instance: Instance | None
    kept_levels: tuple[int, ...]
    deleted_levels: tuple[int, ...]
    rule_log: tuple[tuple, ...]

    @property
    def resolved(self) -> bool:
        return self.instance is None


def compute_criticality(inst: Instance) -> CriticalityTable:
    """Z(a) and criticality flags for an egalitarian instance."""
    if inst.mode != EGALITARIAN:
        raise ValueError("criticality is defined for egalitarian instances")
    threshold = inst.n * inst.y
    z: list[list[int]] = [[] for _ in range(inst.n)]
    for t0, row in enumerate(inst.profile):
        support = row_support(row)
        usable = {
            c for c in support
            if inst.k >= 1 and sum(support[d] for d in greedy_committee(support, inst.k, c)) >= inst.x
        }
        for a0, c in enumerate(row):
            if c != 0 and c in usable:
                z[a0].append(t0 + 1)
    critical = tuple(len(levels) <= threshold for levels in z)
    return CriticalityTable(tuple(tuple(lv) for lv in z), critical, threshold)


def kernelize_ny(inst: Instance) -> KernelResult:
    """Exhaustive kernelization of an egalitarian instance.

    Applied in order: (0) a level without any valid committee resolves to
    no; (1) all agents non-critical resolves to yes, witnessed by the greedy
    level assignment; (2) a level no critical agent can use is deleted, in
    one sweep over the levels (see the module docstring).  When nothing
    applies the reduced instance has at most ``n^2 * y`` levels and at most
    ``n`` candidates.
    """
    if inst.mode != EGALITARIAN:
        raise ValueError("the level kernel is defined for egalitarian instances")
    renamed, renaming = rename_candidates(inst)
    every = tuple(range(1, inst.tau + 1))

    supports = [row_support(row) for row in renamed.profile]
    for t0, support in enumerate(supports):
        if _top_score(support.values(), renamed.k) < renamed.x:
            return KernelResult("no", None, None, every, (), (("no-valid-committee", t0 + 1),))

    table = compute_criticality(renamed)
    if not any(table.critical):
        witness = _non_critical_witness(renamed, table, supports)
        return KernelResult("yes", renaming.lift(witness), None, every, (), (("all-non-critical",),))

    # users[t]: agents that can use level t; needed[t]: some critical agent can
    counts = [len(z) for z in table.z_sets]
    users: list[list[int]] = [[] for _ in range(inst.tau + 1)]
    needed = [False] * (inst.tau + 1)
    for a0, z in enumerate(table.z_sets):
        for t in z:
            users[t].append(a0)
            needed[t] = needed[t] or table.critical[a0]
    kept: list[int] = []
    deleted: list[int] = []
    for t in every:
        if needed[t]:
            kept.append(t)
            continue
        deleted.append(t)
        for a0 in users[t]:  # not critical, since t is not needed
            counts[a0] -= 1
            if counts[a0] == table.threshold:
                for s in table.z_sets[a0]:
                    needed[s] = True

    log = tuple(("delete-level", t) for t in deleted)
    if not kept:
        # every level was useless to critical agents; with a positive target
        # some agent can never score, without one the greedy committees do
        if inst.y > 0:
            return KernelResult("no", None, None, (), tuple(deleted), log)
        witness = _non_critical_witness(renamed, table, supports)
        return KernelResult("yes", renaming.lift(witness), None, (), tuple(deleted), log)

    rows = tuple(renamed.profile[t - 1] for t in kept)
    reduced = Instance(
        renamed.mode, renamed.n, renamed.m, len(kept), renamed.k, renamed.x, renamed.y, rows
    )
    return KernelResult(None, None, reduced, tuple(kept), tuple(deleted), log)


def _non_critical_witness(renamed, table, supports) -> CommitteeSequence:
    """Greedy level assignment: agents in index order each claim their y
    smallest still-free usable levels; every other level gets the plain
    greedy committee (valid, by the step-0 check), so with y = 0 every
    level does."""
    committees = [greedy_committee(support, renamed.k) for support in supports]
    claimed: set[int] = set()
    for a0 in range(renamed.n):
        mine = [t for t in table.z_sets[a0] if t not in claimed][:renamed.y]
        if len(mine) < renamed.y:
            raise AssertionError("non-critical agent ran out of usable levels")
        claimed.update(mine)
        for t in mine:
            nominee = renamed.profile[t - 1][a0]
            committees[t - 1] = greedy_committee(supports[t - 1], renamed.k, include=nominee)
    return CommitteeSequence.of(committees)


def rr_pe_qcse_zero_y(pe: Instance | PeInstance) -> Instance | PeInstance:
    """Remove satisfied agents from an equitable plain or pre-elected instance.

    An agent whose remaining target is zero forbids every candidate it
    nominates (electing one would overshoot), so those nominations are
    erased everywhere and the agent is dropped.  No agent with target zero
    is the identity.
    """
    if pe.mode != EQUITABLE:
        raise ValueError("the zero-target rule applies to equitable instances")
    yvec = pe.yvec
    zeros = [a0 for a0 in range(pe.n) if yvec[a0] == 0]
    if not zeros:
        return pe
    keep = [a0 for a0 in range(pe.n) if yvec[a0] != 0]
    rows = []
    for row in pe.profile:
        banned = {row[a0] for a0 in zeros} - {0}
        rows.append(tuple(0 if row[a0] in banned else row[a0] for a0 in keep))
    targets = tuple(yvec[a0] for a0 in keep)
    return PeInstance(pe.mode, len(keep), pe.m, pe.tau, pe.kvec, pe.xvec, targets, tuple(rows))
