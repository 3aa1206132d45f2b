"""Dynamic programming over per-agent score vectors.

The state after level t is the vector of agent scores so far; transitions
are the distinct agent-inclusion fingerprints of the level's valid
committees.  Equitable mode keeps exact scores and discards any vector with
an entry above the target (scores only grow, so such a vector is dead);
egalitarian mode caps entries at the target, where excess satisfaction is
irrelevant.  Either way at most (y+1)^n vectors survive per level and the
all-target vector at the last level decides the instance.

A score vector is one int: agent a's score fills a w-bit field, w =
(y+1).bit_length() + 1, with agent 1's field the highest.  No field ever
carries into the next, so int order is the vectors' lexicographic order and
the sweep visits, records and reports exactly what a sweep over tuples
would.  The spare top bit of each field flags the agents already at y, so a
transition is two masks and one add whatever n is.

The table is capped: once the vectors kept over all levels so far, the level
being built included, pass ``MAX_TABLE_ENTRIES`` (about 180 MB peak at
n = 12, reached in about 3.5 s on a two-core VM), the sweep refuses with
:class:`DpGuardError` instead of exhausting memory.  A caller that would
rather hand a hopeless instance on than wait for the cap passes a smaller
entry budget (``AUTO_BUDGET`` under ``solve --algo auto``).  A budget also
bounds committee enumeration: before any level is enumerated, the subsets
that :func:`ecse.model.valid_committees` would try over the distinct
renamed rows are counted, and the sweep refuses at once if they pass the
budget.  Both counts are work, never time, so a refusal is deterministic.
Neither bounds the transitions between them, which can reach the frontier
times the level's fingerprints, so the time a refusal takes is measured,
not bounded: under ``AUTO_BUDGET`` at most 5 ms (best of 3) on the ladders
in ROADMAP.md and the seed-1 and seed-2 ``search-cliffs`` corpora.
"""

from __future__ import annotations

from .model import (
    CommitteeSequence,
    GuardExceeded,
    Instance,
    SolveResult,
    level_fingerprints,
    rename_candidates,
    subsets_to_try,
)


class DpGuardError(GuardExceeded):
    """Too many agents or score vectors for the score-vector table."""


MAX_AGENTS = 20
MAX_TABLE_ENTRIES = 1_000_000
#: entry budget of the attempt ``solve --algo auto`` makes on every instance
#: with at most ``MAX_AGENTS`` agents
AUTO_BUDGET = 2_000


def solve_dp(inst: Instance, budget: int | None = None) -> SolveResult:
    """Exact verdict via the score-vector sweep; witness from back-pointers.

    Levels with equal renamed rows share one fingerprint table, but
    ``committees_enumerated`` still adds its size once per level.  With a
    ``budget`` (never above ``MAX_TABLE_ENTRIES``) the table holds at most
    that many entries, and committee enumeration that would try more subsets
    than that refuses before it starts.
    """
    renamed, renaming = rename_candidates(inst)
    if renamed.n > MAX_AGENTS:
        raise DpGuardError(f"{renamed.n} agents exceed the table guard ({MAX_AGENTS})")
    n, y = renamed.n, renamed.y
    cap = renamed.egalitarian
    limit = MAX_TABLE_ENTRIES
    if budget is not None:
        limit = min(budget, limit)
        # a renamed row nominates candidates 1..max(row)
        subsets = sum(
            subsets_to_try(max(row, default=0), renamed.k) for row in set(renamed.profile)
        )
        if subsets > limit:
            raise DpGuardError(f"committee enumeration of {subsets} subsets exceeds {limit}")

    w = (y + 1).bit_length() + 1  # bits per agent's field, see above
    ones = sum(1 << (w * a) for a in range(n))
    # adding `reach` carries into a field's top bit iff its score is y
    reach, top = ((1 << (w - 1)) - y) * ones, ones << (w - 1)

    def pack(fp: tuple[int, ...]) -> int:
        out = 0
        for b in fp:
            out = out << w | b
        return out

    stats = {"table_entries": 0, "max_frontier": 0, "committees_enumerated": 0}

    # frontier per level: score vector -> (previous vector, committee)
    trace: list[dict[int, tuple[int, tuple[int, ...]]]] = []
    frontier: dict = {0: None}
    tables: dict[tuple[int, ...], list] = {}  # renamed row -> its fingerprints
    for t, row in enumerate(renamed.profile, 1):
        if row not in tables:
            tables[row] = [(pack(fp), c) for fp, c in level_fingerprints(renamed, t).items()]
        fps = tables[row]
        stats["committees_enumerated"] += len(fps)
        nxt: dict = {}
        room = limit - stats["table_entries"]
        for vec in sorted(frontier):
            done = ((vec + reach) & top) >> (w - 1)  # a 1 in each field at y
            # egalitarian scores stop at y; an equitable vector past y is dead
            keep, dead = (~done, 0) if cap else (-1, done)
            for fp, committee in fps:
                if fp & dead:
                    continue
                out = vec + (fp & keep)
                if out not in nxt:
                    nxt[out] = (vec, committee)
                    if len(nxt) > room:
                        raise DpGuardError(f"score table exceeds {limit} entries")
        frontier = nxt
        trace.append(frontier)
        stats["table_entries"] += len(frontier)
        stats["max_frontier"] = max(stats["max_frontier"], len(frontier))

    target = y * ones
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
