"""Score-vector DP: verdicts, table bounds, pruning soundness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecse.model
import ecse.score_dp
from ecse.model import (
    EGALITARIAN, EQUITABLE, CommitteeSequence, SolveResult, level_fingerprints,
    rename_candidates, verify,
)
from ecse.oracle import brute_solve
from ecse.score_dp import AUTO_BUDGET, DpGuardError, packed_fingerprints, solve_dp
from ecse.generators import gen_3part, random_instance

from conftest import make_instance


def test_trip_equitable_x3(trip_equitable_x3):
    result = solve_dp(trip_equitable_x3)
    assert result.verdict == "yes"
    report = verify(trip_equitable_x3, result.witness)
    assert report.feasible and set(report.agent_scores) == {1}
    assert result.stats["table_entries"] <= trip_equitable_x3.tau * 2 ** 6


def test_trip_equitable_x4(trip_equitable_x4):
    assert solve_dp(trip_equitable_x4).verdict == "no"


def test_trip_egalitarian(trip_egalitarian):
    result = solve_dp(trip_egalitarian)
    assert result.verdict == "yes"
    assert result.witness.committees == ((1, 5), (2, 3))


def test_zero_target_chain():
    inst = make_instance([(1, 2), (2, 2)], mode=EGALITARIAN, k=1, x=0, y=0)
    result = solve_dp(inst)
    assert result.verdict == "yes"
    assert result.stats["max_frontier"] == 1  # only the all-zero vector


def test_guard():
    inst = random_instance(0, n=21, m=3, tau=1, k=1, x=0, y=0, mode=EGALITARIAN)
    with pytest.raises(DpGuardError):
        solve_dp(inst)


def test_agrees_with_oracle_and_respects_bound():
    for seed in range(250):
        inst = random_instance(
            seed, n=1 + seed % 5, m=1 + (seed * 7) % 5, tau=1 + seed % 4,
            k=seed % 4, x=seed % 4, y=seed % 3,
            mode=EGALITARIAN if seed % 2 else EQUITABLE, empty_prob=(seed % 4) / 10,
        )
        result = solve_dp(inst)
        assert result.verdict == brute_solve(inst).verdict, f"seed {seed}"
        if result.witness is not None:
            assert verify(inst, result.witness).feasible
        assert result.stats["max_frontier"] <= (inst.y + 1) ** inst.n


@pytest.mark.parametrize("mode", [EGALITARIAN, EQUITABLE])
def test_table_cap_refuses_one_entry_past_it(mode, monkeypatch):
    inst = random_instance(3, 8, 4, 4, 2, 1, 1, mode)
    full = solve_dp(inst)
    entries = full.stats["table_entries"]
    assert entries > 2
    monkeypatch.setattr("ecse.score_dp.MAX_TABLE_ENTRIES", entries)
    assert solve_dp(inst) == full
    monkeypatch.setattr("ecse.score_dp.MAX_TABLE_ENTRIES", entries - 1)
    with pytest.raises(DpGuardError, match="score table"):
        solve_dp(inst)


@pytest.mark.parametrize("mode, table_entries, max_frontier", [
    (EGALITARIAN, 727, 372), (EQUITABLE, 186, 76),
])
def test_one_fingerprint_table_per_distinct_row(mode, table_entries, max_frontier, monkeypatch):
    # 3-Partition repeats one row at all three levels, so one table serves them
    inst = gen_3part([1, 1, 4, 2, 2, 2, 3, 2, 1], mode)
    assert len(set(inst.profile)) == 1 and inst.tau == 3
    calls = []
    build = ecse.score_dp.enumerate_valid_committees
    monkeypatch.setattr(
        "ecse.score_dp.enumerate_valid_committees",
        lambda inst, t: calls.append(t) or build(inst, t),
    )
    witness = CommitteeSequence(((7, 8, 9), (4, 5, 6), (1, 2, 3)))
    # each level still counts its table's 55 committees
    stats = {
        "table_entries": table_entries, "max_frontier": max_frontier, "committees_enumerated": 165,
    }
    assert solve_dp(inst) == SolveResult.yes(witness, stats)
    assert calls == [1]


def tuple_dp(inst):
    """The score DP on tuple score vectors: a reference for the packed one.

    Egalitarian mode sweeps forward only.  Equitable mode sweeps from both
    ends, always extending the side with fewer vectors (forward on a tie),
    and joins a prefix vector v with the suffix vector y - v."""
    renamed, renaming = rename_candidates(inst)
    y, cap, tau = renamed.y, renamed.egalitarian, renamed.tau

    def add(vec, fp):
        if cap:
            return tuple(min(y, v + b) for v, b in zip(vec, fp))
        out = tuple(v + b for v, b in zip(vec, fp))
        return None if y + 1 in out else out

    stats = {"table_entries": 0, "max_frontier": 0, "committees_enumerated": 0}

    def sweep(frontier, t):
        fps = list(level_fingerprints(renamed, t).items())
        stats["committees_enumerated"] += len(fps)
        nxt = {}
        for vec in sorted(frontier):
            for fp, committee in fps:
                out = add(vec, fp)
                if out is not None and out not in nxt:
                    nxt[out] = (vec, committee)
        stats["table_entries"] += len(nxt)
        stats["max_frontier"] = max(stats["max_frontier"], len(nxt))
        return nxt

    zero, target = (0,) * renamed.n, (y,) * renamed.n
    if cap:
        trace = []
        frontier = {zero: None}
        for t in range(1, tau + 1):
            frontier = sweep(frontier, t)
            trace.append(frontier)
        vec = target
        if vec not in trace[-1]:
            return SolveResult.no(stats)
        committees = []
        for level in reversed(trace):
            vec, committee = level[vec]
            committees.append(committee)
        committees.reverse()
    else:
        prefix, suffix = [{zero: None}], [{zero: None}]  # suffix[i]: levels tau-i+1..tau
        while len(prefix) + len(suffix) - 2 < tau and prefix[-1] and suffix[-1]:
            if len(prefix[-1]) <= len(suffix[-1]):
                prefix.append(sweep(prefix[-1], len(prefix)))
            else:
                suffix.append(sweep(suffix[-1], tau + 1 - len(suffix)))
        meets = sorted(
            v for v in prefix[-1] if tuple(y - a for a in v) in suffix[-1]
        )
        if not meets:
            return SolveResult.no(stats)
        committees = []
        vec = meets[0]
        for level in reversed(prefix[1:]):
            vec, committee = level[vec]
            committees.append(committee)
        committees.reverse()
        vec = tuple(y - a for a in meets[0])
        for level in reversed(suffix[1:]):
            vec, committee = level[vec]
            committees.append(committee)
    witness = renaming.lift(CommitteeSequence(tuple(committees)))
    return SolveResult.yes(witness, stats)


@pytest.mark.parametrize("mode", [EGALITARIAN, EQUITABLE])
@pytest.mark.parametrize("y", [0, 1, 2, 3, 6, 7])  # every field-width boundary
def test_packed_vectors_match_tuple_reference(mode, y, monkeypatch):
    # n = 20 packs scores into 40-100 bits, past one machine word
    yes = 0
    for seed in range(12):
        n = (1, 3, 6, 9, 14, 20)[seed % 6]
        tau = 1 + seed % 2 if n > 9 else max(y, 1) + seed % 3
        inst = random_instance(
            seed, n=n, m=1 + seed % 4, tau=tau, k=1 + seed % 3, x=seed % 2, y=y,
            mode=mode, empty_prob=(seed % 3) / 5,
        )
        expected = tuple_dp(inst)
        assert solve_dp(inst) == expected, f"seed {seed}"
        yes += expected.verdict == "yes"
        entries = expected.stats["table_entries"]
        if entries:  # a cap one entry short of the reference's table refuses
            with monkeypatch.context() as patch:
                patch.setattr("ecse.score_dp.MAX_TABLE_ENTRIES", entries - 1)
                refusal = f"^score table exceeds {entries - 1} entries$"
                with pytest.raises(DpGuardError, match=refusal):
                    solve_dp(inst)
    assert yes  # some witnesses are compared, not only "no"


def test_ln_rung_n8_pinned():
    # the L-n ladder's rung at n = 8, seed 1, as the tuple DP decided it
    inst = random_instance(1, 8, 5, 10, 2, 2, 3, EGALITARIAN)
    witness = CommitteeSequence(
        ((2, 3), (4,), (5,), (1, 2), (1, 4), (5,), (1,), (1,), (3, 5), (2, 3))
    )
    stats = {"table_entries": 80538, "max_frontier": 17602, "committees_enumerated": 100}
    assert solve_dp(inst) == SolveResult.yes(witness, stats)


def test_budget_refuses_a_wide_level_before_enumerating_it(monkeypatch):
    # three permutation rows of 20 agents with k = 10: one distinct renamed
    # row, whose 616,666 subsets of at most 10 candidates pass the budget
    rows = [tuple(range(1, 21)), tuple(range(20, 0, -1)), tuple(range(2, 21)) + (1,)]
    inst = make_instance(rows, mode=EGALITARIAN, k=10, x=1, y=1)
    calls = []
    enumerate_ = ecse.model.valid_committees
    monkeypatch.setattr(
        "ecse.model.valid_committees", lambda *args: calls.append(args) or enumerate_(*args)
    )
    refusal = "^committee enumeration of 616666 subsets exceeds 2000$"
    with pytest.raises(DpGuardError, match=refusal):
        solve_dp(inst, budget=AUTO_BUDGET)
    assert calls == []


@pytest.mark.parametrize("mode", [EGALITARIAN, EQUITABLE])
def test_budget_is_a_table_cap_no_larger_than_the_global_one(mode, monkeypatch):
    # the table holds more entries than the 58 subsets enumeration tries
    inst = random_instance(3, 8, 4, 6, 2, 1, 2, mode)
    calls = []
    build = ecse.score_dp.enumerate_valid_committees
    monkeypatch.setattr(
        "ecse.score_dp.enumerate_valid_committees",
        lambda inst, t: calls.append(t) or build(inst, t),
    )
    full = solve_dp(inst)
    # an equitable table counts both sides: here the sweep ran from both ends
    assert len(set(inst.profile)) == inst.tau
    assert mode == EGALITARIAN or {1, inst.tau} <= set(calls)
    entries = full.stats["table_entries"]
    assert entries > 58
    assert solve_dp(inst, budget=entries) == full
    with pytest.raises(DpGuardError, match=f"^score table exceeds {entries - 1} entries$"):
        solve_dp(inst, budget=entries - 1)
    monkeypatch.setattr("ecse.score_dp.MAX_TABLE_ENTRIES", entries - 1)
    with pytest.raises(DpGuardError, match=f"^score table exceeds {entries - 1} entries$"):
        solve_dp(inst, budget=10 * entries)


def _equitable_families():
    """Equitable instances at the edges of the two-sided sweep."""
    for seed in range(40):
        n, m, k, x = 1 + seed % 5, 1 + seed % 4, 1 + seed % 3, seed % 3
        y = seed % 3
        base = random_instance(seed, n, m, 1 + seed % 2, k, x, y, EQUITABLE, (seed % 3) / 5)
        # tau = 1 leaves the backward side no level, tau = 2 gives each side one
        yield "tau<=2", base
        # duplicated level rows share one fingerprint table on both sides
        rows = base.profile + base.profile[::-1]
        yield "duplicated rows", make_instance(rows, mode=EQUITABLE, k=k, x=x, y=y, m=m)
        # an agent who nominates nowhere scores 0 on either side
        rows = tuple(row + (0,) for row in base.profile)
        yield "nominates nowhere", make_instance(rows, mode=EQUITABLE, k=k, x=x, y=y, m=m)
        # y = tau: every agent is satisfied at every level
        tau = 1 + seed % 4
        yield "y = tau", random_instance(seed, n, m, tau, k, x % 2, tau, EQUITABLE)


def test_equitable_two_sided_sweep_agrees_with_the_oracle():
    verdicts = {}
    for family, inst in _equitable_families():
        result = solve_dp(inst)
        assert result.verdict == brute_solve(inst).verdict, (family, inst)
        if result.witness is not None:
            assert verify(inst, result.witness).feasible, (family, inst)
        verdicts.setdefault(family, set()).add(result.verdict)
    # every family decides both ways, so witnesses are joined and checked too
    assert all(seen == {"yes", "no"} for seen in verdicts.values()), verdicts


def test_ln_eq_rung_n12_decides_within_the_table_cap():
    # a forward-only sweep refuses this at MAX_TABLE_ENTRIES; the two halves
    # keep 379,380 vectors between them
    inst = random_instance(0, 12, 5, 10, 2, 2, 3, EQUITABLE)
    result = solve_dp(inst)
    assert result.verdict == "yes"
    assert verify(inst, result.witness).feasible
    assert result.stats["table_entries"] == 379380


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 6), st.integers(1, 3),
    st.integers(0, 4), st.integers(0, 3), st.integers(0, 3),
    st.sampled_from([EGALITARIAN, EQUITABLE]), st.sampled_from([0.0, 0.25, 0.5]),
)
def test_packed_table_packs_the_level_fingerprints(seed, n, m, tau, k, x, y, mode, empty):
    # summing supporter fields gives what packing each n-tuple bit by bit gave
    renamed, _ = rename_candidates(random_instance(seed, n, m, tau, k, x, y, mode, empty))
    w = (y + 1).bit_length() + 1

    def pack(fp):
        out = 0
        for b in fp:
            out = out << w | b
        return out

    for t in range(1, tau + 1):
        expected = [(pack(fp), c) for fp, c in level_fingerprints(renamed, t).items()]
        assert packed_fingerprints(renamed, t, w) == expected
