"""Dynamic programming over per-agent score vectors.

A state is the vector of agent scores over a run of levels; one ``step``
applies a level's transitions, the distinct agent-inclusion fingerprints of
its valid committees, to every vector of a frontier.  Egalitarian mode
sweeps forward from level 1 and caps entries at the target, where excess
satisfaction is irrelevant; the all-target vector at the last level decides
the instance.  Equitable mode keeps exact scores and discards any vector with
an entry above the target (scores only grow, so such a vector is dead).
Every agent ends at exactly y there, so a prefix vector v and a suffix
vector u complete each other iff u = y·1 - v, and the sweep runs from both
ends: forward over levels 1, 2, ... and backward over tau, tau-1, ..., by
the same ``step``, always extending the side with fewer vectors (forward on
a tie) until the two meet.  The instance is yes iff some forward vector v
has y·1 - v on the backward side, the meet-in-the-middle join of Horowitz
and Sahni (JACM 1974); an empty side is a no at once.  The witness follows
the forward back-pointers from the least such v, then the backward ones
from y·1 - v.  Capped vectors have no exact complement, so egalitarian mode
has no backward side.  Either way at most (y+1)^n vectors survive per level.

A score vector is one int: agent a's score fills a w-bit field, w =
(y+1).bit_length() + 1, with agent 1's field the highest.  No field ever
carries into the next (nor borrows, in y·1 - v), so int order is the
vectors' lexicographic order and the sweeps visit, record and report exactly
what sweeps over tuples would.  The spare top bit of each field flags the
agents already at y, so a transition is two masks and one add whatever n is.
A level's fingerprints are packed straight from per-candidate supporter
fields (:func:`packed_fingerprints`), never built as n-tuples.

``table_entries`` counts the vectors kept on both sides and
``max_frontier`` is the largest frontier on either side.  The table is
capped: once the vectors kept on both sides so far, the level being built
included, pass ``MAX_TABLE_ENTRIES`` (about 180 MB peak at n = 12, reached
in about 3.5 s on a two-core VM), the sweep refuses with
:class:`DpGuardError` instead of exhausting memory.  A caller that would
rather hand a hopeless instance on than wait for the cap passes a smaller
entry budget (``AUTO_BUDGET`` under ``solve --algo auto``), which counts
both sides too.  A budget also bounds committee enumeration: before any
level is enumerated, the subsets that :func:`ecse.model.valid_committees`
would try over the distinct renamed rows are counted, and the sweep refuses
at once if they pass the budget.  Both counts are work, never time, so a
refusal is deterministic.  Neither bounds the transitions between them,
which can reach the frontier times the level's fingerprints, so the time a
refusal takes is measured, not bounded: under ``AUTO_BUDGET`` at most 3 ms
(best of 5) on the ladders in ROADMAP.md, 3.2 ms on the seed-1 and 5.1 ms
on the seed-2 ``search-cliffs`` corpus.
"""

from __future__ import annotations

from .model import (
    Committee,
    CommitteeSequence,
    GuardExceeded,
    Instance,
    SolveResult,
    enumerate_valid_committees,
    rename_candidates,
    subsets_to_try,
)


class DpGuardError(GuardExceeded):
    """Too many agents or score vectors for the score-vector table."""


MAX_AGENTS = 20
MAX_TABLE_ENTRIES = 1_000_000
#: entry budget of the attempt ``solve --algo auto`` makes on every instance
#: with at most ``MAX_AGENTS`` agents that branching's root does not decide
AUTO_BUDGET = 2_000


def level_fingerprints(inst, t: int) -> dict[tuple[int, ...], Committee]:
    """Agent-inclusion patterns of the valid committees at level ``t``, in
    the committees' (size, lexicographic) order.

    A fingerprint is the n-bit vector with bit ``a`` set iff agent ``a+1``'s
    nominee is in the committee.  Each maps to its one committee: valid
    committees hold nominated candidates only, and two candidates' supporters
    at one level are disjoint and nonempty, so two distinct committees
    differ on the supporters of a candidate only one of them holds.
    """
    row = inst.profile[t - 1]
    out: dict[tuple[int, ...], Committee] = {}
    for committee in enumerate_valid_committees(inst, t):
        chosen = set(committee)
        out[tuple(1 if c in chosen else 0 for c in row)] = committee
    return out


def packed_fingerprints(inst: Instance, t: int, w: int) -> list[tuple[int, Committee]]:
    """``(fingerprint, committee)`` for each valid committee at level ``t``,
    in :func:`enumerate_valid_committees` order.  The fingerprint is the
    agent-inclusion vector of :func:`level_fingerprints` packed ``w`` bits
    per agent, agent 1's field highest.

    ``field[c]`` holds a 1 in the field of each agent nominating ``c``.  The
    supporter sets of one level are disjoint, so a committee's fingerprint
    is the sum of its candidates' fields, and no per-agent tuple is built."""
    n = inst.n
    field = [0] * (inst.m + 1)
    for a0, c in enumerate(inst.profile[t - 1]):
        field[c] |= 1 << w * (n - 1 - a0)
    return [
        (sum(map(field.__getitem__, committee)), committee)
        for committee in enumerate_valid_committees(inst, t)
    ]


def solve_dp(inst: Instance, budget: int | None = None) -> SolveResult:
    """Exact verdict via the score-vector sweeps; witness from back-pointers.

    Levels with equal renamed rows share one fingerprint table, but
    ``committees_enumerated`` still adds its size once per level swept.  With
    a ``budget`` (never above ``MAX_TABLE_ENTRIES``) the two sides hold at
    most that many entries together, and committee enumeration that would
    try more subsets than that refuses before it starts.
    """
    if inst.n > MAX_AGENTS:
        raise DpGuardError(f"{inst.n} agents exceed the table guard ({MAX_AGENTS})")
    renamed, renaming = rename_candidates(inst)
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

    stats = {"table_entries": 0, "max_frontier": 0, "committees_enumerated": 0}
    tables: dict[tuple[int, ...], list] = {}  # renamed row -> its fingerprints

    def step(frontier: dict, t: int) -> dict:
        """Level t applied to ``frontier``: vector -> (vector before, committee)."""
        row = renamed.profile[t - 1]
        if row not in tables:
            tables[row] = packed_fingerprints(renamed, t, w)
        fps = tables[row]
        stats["committees_enumerated"] += len(fps)
        nxt: dict = {}
        room = limit - stats["table_entries"]
        for vec in sorted(frontier):
            done = ((vec + reach) & top) >> (w - 1)  # a 1 in each field at y
            if cap:
                # egalitarian scores stop at y
                keep = ~done
                for fp, committee in fps:
                    out = vec + (fp & keep)
                    if out not in nxt:
                        nxt[out] = (vec, committee)
                        if len(nxt) > room:
                            raise DpGuardError(f"score table exceeds {limit} entries")
            else:
                # an equitable vector past y is dead
                for fp, committee in fps:
                    if fp & done:
                        continue
                    out = vec + fp
                    if out not in nxt:
                        nxt[out] = (vec, committee)
                        if len(nxt) > room:
                            raise DpGuardError(f"score table exceeds {limit} entries")
        stats["table_entries"] += len(nxt)
        stats["max_frontier"] = max(stats["max_frontier"], len(nxt))
        return nxt

    # the forward side has swept levels 1..lo, the backward side hi+1..tau;
    # trace[t] is level t's frontier on the side that swept it
    trace: dict[int, dict] = {}
    fwd: dict = {0: None}
    bwd: dict = {0: None}
    lo, hi = 0, renamed.tau
    while lo < hi and (cap or (fwd and bwd)):
        if cap or len(fwd) <= len(bwd):
            lo += 1
            fwd = trace[lo] = step(fwd, lo)
        else:
            bwd = trace[hi] = step(bwd, hi)
            hi -= 1

    # scan the smaller side; egalitarian bwd is {0}, met only by the target
    target = y * ones
    if len(fwd) <= len(bwd):
        meets = [v for v in fwd if target - v in bwd]
    else:
        meets = [target - u for u in bwd if target - u in fwd]
    if not meets:
        return SolveResult.no(stats)

    committees: list[tuple[int, ...]] = []
    vec = meet = min(meets)
    for t in range(lo, 0, -1):
        vec, committee = trace[t][vec]
        committees.append(committee)
    committees.reverse()
    vec = target - meet
    for t in range(hi + 1, renamed.tau + 1):
        vec, committee = trace[t][vec]
        committees.append(committee)
    witness = renaming.lift(CommitteeSequence(tuple(committees)))
    return SolveResult.yes(witness, stats)
