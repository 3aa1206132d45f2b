"""Score-vector DP: verdicts, table bounds, pruning soundness."""

import pytest

import ecse.score_dp
from ecse.model import EGALITARIAN, EQUITABLE, CommitteeSequence, SolveResult, verify
from ecse.oracle import brute_solve
from ecse.score_dp import DpGuardError, solve_dp
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
    (EGALITARIAN, 727, 372), (EQUITABLE, 132, 76),
])
def test_one_fingerprint_table_per_distinct_row(mode, table_entries, max_frontier, monkeypatch):
    # 3-Partition repeats one row at all three levels, so one table serves them
    inst = gen_3part([1, 1, 4, 2, 2, 2, 3, 2, 1], mode)
    assert len(set(inst.profile)) == 1 and inst.tau == 3
    calls = []
    build = ecse.score_dp.level_fingerprints
    monkeypatch.setattr(
        "ecse.score_dp.level_fingerprints", lambda inst, t: calls.append(t) or build(inst, t)
    )
    witness = CommitteeSequence(((7, 8, 9), (4, 5, 6), (1, 2, 3)))
    # each level still counts its table's 55 committees
    stats = {
        "table_entries": table_entries, "max_frontier": max_frontier, "committees_enumerated": 165,
    }
    assert solve_dp(inst) == SolveResult.yes(witness, stats)
    assert calls == [1]
