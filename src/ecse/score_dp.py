"""Dynamic programming over per-agent score vectors.

The state after level t is the vector of agent scores so far; transitions
are the distinct agent-inclusion fingerprints of the level's valid
committees.  Equitable mode keeps exact scores and discards any vector with
an entry above the target (scores only grow, so such a vector is dead);
egalitarian mode caps entries at the target, where excess satisfaction is
irrelevant.  Either way at most (y+1)^n vectors survive per level and the
all-target vector at the last level decides the instance.

The table is capped: once the vectors kept over all levels so far, the level
being built included, pass ``MAX_TABLE_ENTRIES`` (about 0.3 GB at n = 13),
the sweep refuses with :class:`DpGuardError` instead of exhausting memory.
"""

from __future__ import annotations

from .model import (
    CommitteeSequence,
    GuardExceeded,
    Instance,
    SolveResult,
    level_fingerprints,
    rename_candidates,
)


class DpGuardError(GuardExceeded):
    """Too many agents or score vectors for the score-vector table."""


MAX_AGENTS = 20
MAX_TABLE_ENTRIES = 1_000_000


def solve_dp(inst: Instance, prune: bool = True) -> SolveResult:
    """Exact verdict via the score-vector sweep; witness from back-pointers.

    ``prune=False`` disables the equitable above-target cut (scores then run
    up to tau); it exists so tests can confirm the cut never changes the
    outcome.  Egalitarian mode always caps, which is its exact semantics.
    Levels with equal renamed rows share one fingerprint table, but
    ``committees_enumerated`` still adds its size once per level.
    """
    renamed, renaming = rename_candidates(inst)
    if renamed.n > MAX_AGENTS:
        raise DpGuardError(f"{renamed.n} agents exceed the table guard ({MAX_AGENTS})")
    y = renamed.y
    cap = renamed.egalitarian

    stats = {"table_entries": 0, "max_frontier": 0, "committees_enumerated": 0}

    def step(vec: tuple[int, ...], fp: tuple[int, ...]) -> tuple[int, ...] | None:
        if cap:
            return tuple(min(y, v + b) for v, b in zip(vec, fp))
        out = tuple(v + b for v, b in zip(vec, fp))
        if prune and any(v > y for v in out):
            return None
        return out

    # frontier per level: score vector -> (previous vector, committee)
    trace: list[dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]] = []
    frontier: dict = {(0,) * renamed.n: None}
    tables: dict[tuple[int, ...], list] = {}  # renamed row -> its fingerprints
    for t, row in enumerate(renamed.profile, 1):
        if row not in tables:
            tables[row] = list(level_fingerprints(renamed, t).items())
        fps = tables[row]
        stats["committees_enumerated"] += len(fps)
        nxt: dict = {}
        room = MAX_TABLE_ENTRIES - stats["table_entries"]
        for vec in sorted(frontier):
            for fp, committee in fps:
                out = step(vec, fp)
                if out is not None and out not in nxt:
                    nxt[out] = (vec, committee)
                    if len(nxt) > room:
                        raise DpGuardError(f"score table exceeds {MAX_TABLE_ENTRIES} entries")
        frontier = nxt
        trace.append(frontier)
        stats["table_entries"] += len(frontier)
        stats["max_frontier"] = max(stats["max_frontier"], len(frontier))

    target = (y,) * renamed.n
    if target not in trace[-1]:
        return SolveResult.no(stats)

    committees: list[tuple[int, ...]] = []
    vec = target
    for t0 in range(renamed.tau - 1, -1, -1):
        prev, committee = trace[t0][vec]
        committees.append(committee)
        vec = prev
    committees.reverse()
    witness = renaming.lift(CommitteeSequence(tuple(committees)))
    return SolveResult.yes(witness, stats)
