"""Core model: scores, verification, trivial cases, renaming, enumeration."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecse.model import (
    EGALITARIAN,
    EQUITABLE,
    EGALITARIAN_SPEC,
    EQUITABLE_SPEC,
    CommitteeSequence,
    ComparatorSpec,
    MAX_COMMITTEES,
    EnumerationLimitError,
    Instance,
    PeInstance,
    agent_score,
    committee_score,
    enumerate_valid_committees,
    level_fingerprints,
    rename_candidates,
    solve_easy_generalized,
    trivial_solve,
    valid_committees,
    verify,
    verify_generalized,
)
from ecse.oracle import brute_solve
from ecse.generators import random_instance

from conftest import TRIP_ROWS, make_instance


def seq(*committees):
    return CommitteeSequence.of(committees)


# -- instance validation -------------------------------------------------------


def test_instance_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Instance(EGALITARIAN, 2, 3, 1, 1, 0, 0, ((1,),))
    with pytest.raises(ValueError):
        Instance(EGALITARIAN, 1, 3, 2, 1, 0, 0, ((1,),))
    with pytest.raises(ValueError):
        Instance(EGALITARIAN, 1, 3, 1, 1, 0, 0, ((4,),))
    with pytest.raises(ValueError):
        Instance("both", 1, 3, 1, 1, 0, 0, ((1,),))


def test_out_of_range_nomination_message_names_the_first_bad_value():
    with pytest.raises(ValueError) as err:
        Instance(EGALITARIAN, 4, 3, 2, 1, 0, 0, ((1, 2, 3, 0), (0, 5, -1, 4)))
    assert str(err.value) == "nomination 5 out of range 0..3"


def test_row_check_names_the_first_bad_nomination_in_row_order():
    # the row's least (-1) and greatest (9) values are both out of range too
    row = (2, 5, -1, 9)
    with pytest.raises(ValueError, match="^nomination 5 out of range 0..3$"):
        Instance(EQUITABLE, 4, 3, 1, 1, 0, 0, (row,))
    with pytest.raises(ValueError, match="^nomination 5 out of range 0..3$"):
        PeInstance(EQUITABLE, 4, 3, 1, (1,), (0,), (0,) * 4, (row,))
    with pytest.raises(ValueError, match="^nomination -1 out of range 0..3$"):
        Instance(EQUITABLE, 4, 3, 2, 1, 0, 0, ((1, 2, 3, 0), (3, 0, -1, 2)))


def test_committee_sequence_must_be_canonical():
    with pytest.raises(ValueError):
        CommitteeSequence(((2, 1),))
    assert CommitteeSequence.of([(2, 1, 2)]).committees == ((1, 2),)


# -- scores ---------------------------------------------------------------------


def test_committee_score_trip(trip_egalitarian):
    assert committee_score(trip_egalitarian, 1, {1, 5}) == 4
    assert committee_score(trip_egalitarian, 2, {3, 6}) == 3
    assert committee_score(trip_egalitarian, 1, ()) == 0
    with pytest.raises(IndexError):
        committee_score(trip_egalitarian, 3, ())


def test_agent_score_trip(trip_egalitarian):
    assert agent_score(trip_egalitarian, 2, seq((1, 5), (2, 3))) == 2
    assert agent_score(trip_egalitarian, 1, seq((1, 3), (3, 6))) == 1
    assert agent_score(trip_egalitarian, 5, seq((), ())) == 0
    with pytest.raises(IndexError):
        agent_score(trip_egalitarian, 7, seq((), ()))


def test_verify_trip_examples(trip_egalitarian, trip_equitable_x3, trip_equitable_x4):
    report = verify(trip_egalitarian, seq((1, 5), (2, 3)))
    assert report.feasible and report.level_scores == (4, 4)

    report = verify(trip_equitable_x3, seq((1, 3), (3, 6)))
    assert report.feasible
    assert report.agent_scores == (1,) * 6

    report = verify(trip_equitable_x4, seq((1, 5), (2, 3)))
    assert not report.feasible
    assert report.first_violation.kind == "agent-score"
    assert report.first_violation.index == 2


def test_verify_flags_level_violations(trip_egalitarian):
    report = verify(trip_egalitarian, seq((1, 2, 3), ()))
    assert report.first_violation.kind == "level-size"
    report = verify(trip_egalitarian, seq((1,), (2, 3)))
    assert report.first_violation.kind == "level-score"
    with pytest.raises(ValueError):
        verify(trip_egalitarian, seq(()))


def test_verify_generalized_matches_modes(trip_egalitarian, trip_equitable_x3):
    for committees in [((1, 5), (2, 3)), ((1,), ()), ((1, 3), (3, 6))]:
        s = seq(*committees)
        assert (
            verify_generalized(trip_egalitarian, EGALITARIAN_SPEC, s).feasible
            == verify(trip_egalitarian, s).feasible
        )
        assert (
            verify_generalized(trip_equitable_x3, EQUITABLE_SPEC, s).feasible
            == verify(trip_equitable_x3, s).feasible
        )


def test_verify_generalized_all_le(trip_egalitarian):
    low = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=2, x=0, y=0, m=6)
    spec = ComparatorSpec("<=", "<=", "<=")
    assert verify_generalized(low, spec, seq((), ())).feasible


def test_double_counting(trip_egalitarian):
    # sum of level scores equals sum of agent scores for any sequence
    for committees in itertools.product([(), (1,), (1, 5), (2, 3)], repeat=2):
        report = verify(trip_egalitarian, seq(*committees))
        assert sum(report.level_scores) == sum(report.agent_scores)


def test_pe_feasible_matches_scalar_semantics(trip_equitable_x3):
    from ecse.branching import lift

    pe = lift(trip_equitable_x3)
    assert verify(pe, CommitteeSequence.of([(1, 3), (3, 6)])).feasible
    assert not verify(pe, CommitteeSequence.of([(1, 5), (2, 3)])).feasible


# -- hypothesis properties ------------------------------------------------------


@st.composite
def instances(draw, max_n=5, max_m=4, max_tau=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    tau = draw(st.integers(1, max_tau))
    mode = draw(st.sampled_from([EGALITARIAN, EQUITABLE]))
    k = draw(st.integers(0, m))
    x = draw(st.integers(0, n))
    y = draw(st.integers(0, tau))
    rows = tuple(
        tuple(draw(st.integers(0, m)) for _ in range(n)) for _ in range(tau)
    )
    return Instance(mode, n, m, tau, k, x, y, rows)


@st.composite
def instance_with_sequence(draw):
    inst = draw(instances())
    committees = tuple(
        tuple(sorted(draw(st.sets(st.integers(1, inst.m), max_size=inst.m))))
        for _ in range(inst.tau)
    )
    return inst, CommitteeSequence(committees)


@given(instance_with_sequence())
@settings(max_examples=150)
def test_score_double_counting_property(pair):
    inst, s = pair
    report = verify(inst, s)
    assert sum(report.level_scores) == sum(report.agent_scores)
    assert report.level_scores == tuple(
        committee_score(inst, t, s.committees[t - 1]) for t in range(1, inst.tau + 1)
    )
    assert report.agent_scores == tuple(agent_score(inst, a, s) for a in range(1, inst.n + 1))


@given(instance_with_sequence(), st.integers(1, 10))
@settings(max_examples=150)
def test_committee_score_monotone(pair, extra):
    inst, s = pair
    for t in range(1, inst.tau + 1):
        small = s.committees[t - 1]
        grown = set(small) | {min(extra, inst.m)} if inst.m else set(small)
        assert committee_score(inst, t, small) <= committee_score(inst, t, grown)


@given(instance_with_sequence())
@settings(max_examples=150)
def test_generalized_specs_match_modes_property(pair):
    inst, s = pair
    spec = EGALITARIAN_SPEC if inst.egalitarian else EQUITABLE_SPEC
    assert verify_generalized(inst, spec, s) == verify(inst, s)


@given(instance_with_sequence())
@settings(max_examples=150)
def test_equitable_feasibility_implies_egalitarian(pair):
    inst, s = pair
    equit = Instance(EQUITABLE, inst.n, inst.m, inst.tau, inst.k, inst.x, inst.y, inst.profile)
    egal = Instance(EGALITARIAN, inst.n, inst.m, inst.tau, inst.k, inst.x, inst.y, inst.profile)
    if verify(equit, s).feasible:
        assert verify(egal, s).feasible


# -- trivial cases ---------------------------------------------------------------


def test_trivial_y0_egalitarian_empty_witness():
    inst = make_instance([(1, 2), (2, 2)], mode=EGALITARIAN, k=1, x=0, y=0)
    result = trivial_solve(inst)
    assert result.verdict == "yes"
    assert "trivial_y0_egalitarian" in result.stats
    assert all(c == () for c in result.witness)


def test_trivial_y0_egalitarian_threshold():
    inst = make_instance([(1, 2), (2, 2)], mode=EGALITARIAN, k=1, x=2, y=0)
    result = trivial_solve(inst)
    # level 2 has two nominations for candidate 2; level 1 splits 1/1
    assert result.verdict == "no"
    inst = make_instance([(2, 2), (2, 2)], mode=EGALITARIAN, k=1, x=2, y=0)
    result = trivial_solve(inst)
    assert result.verdict == "yes"
    assert verify(inst, result.witness).feasible


def test_trivial_y0_equitable():
    inst = make_instance([(1, 2)], mode=EQUITABLE, k=2, x=0, y=0)
    result = trivial_solve(inst)
    assert result.verdict == "yes" and all(c == () for c in result.witness)
    inst = make_instance([(1, 2)], mode=EQUITABLE, k=2, x=1, y=0)
    assert trivial_solve(inst).verdict == "no"


def test_trivial_y_gt_tau():
    inst = make_instance([(1,)], mode=EGALITARIAN, k=1, x=0, y=2)
    result = trivial_solve(inst)
    assert result.verdict == "no" and "trivial_y_gt_tau" in result.stats


def test_trivial_y_eq_tau():
    inst = make_instance([(1, 2), (1, 0)], mode=EGALITARIAN, k=2, x=0, y=2)
    assert trivial_solve(inst).verdict == "no"  # agent 2 misses level 2
    inst = make_instance([(1, 2), (1, 1)], mode=EQUITABLE, k=2, x=0, y=2)
    result = trivial_solve(inst)
    assert result.verdict == "yes"
    assert result.witness.committees == ((1, 2), (1,))
    assert verify(inst, result.witness).feasible


def test_trivial_k_ge_m(trip_egalitarian):
    inst = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=6, x=4, y=1, m=6)
    result = trivial_solve(inst)
    assert result.verdict == "yes" and "trivial_k_ge_m" in result.stats
    assert verify(inst, result.witness).feasible
    # the equitable twin stays hard: no rule fires
    inst = make_instance(TRIP_ROWS, mode=EQUITABLE, k=6, x=4, y=1, m=6)
    assert trivial_solve(inst) is None


def test_trivial_none_for_hard_case(trip_egalitarian):
    assert trivial_solve(trip_egalitarian) is None


def test_trivial_agrees_with_oracle_when_it_fires():
    import random as _random

    rules_seen = set()
    for seed in range(400):
        rng = _random.Random(seed)
        tau = rng.randint(1, 3)
        m = rng.randint(1, 3)
        inst = random_instance(
            seed,
            n=rng.randint(1, 4),
            m=m,
            tau=tau,
            k=rng.randint(0, m + 1),
            x=rng.randint(0, 2),
            y=rng.randint(0, tau + 1),
            mode=EGALITARIAN if seed % 2 else EQUITABLE,
            empty_prob=rng.choice([0.0, 0.3]),
        )
        result = trivial_solve(inst)
        if result is None:
            continue
        rules_seen.update(result.stats)
        assert result.verdict == brute_solve(inst).verdict
        if result.witness is not None:
            assert verify(inst, result.witness).feasible
    assert rules_seen == {
        "trivial_y_gt_tau",
        "trivial_y0_egalitarian",
        "trivial_y0_equitable",
        "trivial_y_eq_tau",
        "trivial_k_ge_m",
    }


# -- renaming --------------------------------------------------------------------


def test_rename_two_agents_single_candidate():
    inst = make_instance([(7, 7)], mode=EGALITARIAN, k=1, x=0, y=1, m=9)
    renamed, renaming = rename_candidates(inst)
    assert renamed.profile == ((1, 1),)
    assert renamed.m == 2
    assert renaming.lift(seq((1,))).committees == ((7,),)


def test_rename_preserves_empty_profile():
    inst = make_instance([(0, 0, 0)], mode=EGALITARIAN, k=1, x=0, y=0, m=5)
    renamed, _ = rename_candidates(inst)
    assert renamed.profile == ((0, 0, 0),)


def test_rename_keeps_coincidence_pattern(trip_egalitarian):
    renamed, _ = rename_candidates(trip_egalitarian)
    assert renamed.m <= trip_egalitarian.n
    for t0 in range(trip_egalitarian.tau):
        old, new = trip_egalitarian.profile[t0], renamed.profile[t0]
        for i in range(trip_egalitarian.n):
            assert (old[i] == 0) == (new[i] == 0)
            for j in range(trip_egalitarian.n):
                assert (old[i] == old[j]) == (new[i] == new[j])


def test_rename_preserves_verdicts():
    for seed in range(500):
        inst = random_instance(
            seed,
            n=1 + seed % 4,
            m=1 + (seed * 7) % 4,
            tau=1 + (seed * 3) % 4,
            k=seed % 4,
            x=seed % 4,
            y=seed % 3,
            mode=EGALITARIAN if seed % 2 else EQUITABLE,
            empty_prob=(seed % 5) / 10,
        )
        renamed, renaming = rename_candidates(inst)
        a = brute_solve(inst)
        b = brute_solve(renamed)
        assert a.verdict == b.verdict
        if b.witness is not None:
            assert verify(inst, renaming.lift(b.witness)).feasible


# -- valid committees and fingerprints --------------------------------------------


def test_enumerate_valid_committees_trip(trip_egalitarian):
    assert enumerate_valid_committees(trip_egalitarian, 1) == [(1, 5)]
    zero = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=0, x=0, y=1, m=6)
    assert enumerate_valid_committees(zero, 1) == [()]
    high = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=2, x=7, y=1, m=6)
    assert enumerate_valid_committees(high, 1) == []


def test_enumerate_guard():
    row = tuple(range(1, 33))
    inst = make_instance([row], mode=EGALITARIAN, k=2, x=0, y=1)
    with pytest.raises(EnumerationLimitError):
        enumerate_valid_committees(inst, 1)


def test_enumeration_cap_refuses_before_enumerating():
    # 25 singly supported candidates and k = 9: 3,850,756 subsets to try
    support = {c: 1 for c in range(1, 26)}
    started = time.perf_counter()
    with pytest.raises(EnumerationLimitError):
        valid_committees(support, 9, 1)
    assert time.perf_counter() - started < 0.1
    assert sum(math.comb(25, s) for s in range(10)) > MAX_COMMITTEES
    # every level the score DP admits (at most 20 candidates) stays under it
    assert sum(math.comb(20, s) for s in range(21)) <= MAX_COMMITTEES


def test_level_fingerprints_trip(trip_egalitarian):
    fps = level_fingerprints(trip_egalitarian, 2)
    assert fps == {(0, 1, 1, 0, 1, 1): (2, 3)}
    zero = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=0, x=0, y=1, m=6)
    assert level_fingerprints(zero, 1) == {(0,) * 6: ()}


def test_level_fingerprints_dedup_bound():
    # no two valid committees share a fingerprint: each holds nominated
    # candidates only, and their supporters are disjoint and nonempty
    for seed in range(300):
        n, m, k, x = 1 + seed % 7, 1 + seed % 6, seed % 4, seed % 3
        inst = random_instance(seed, n, m, 2, k, x, 1, EGALITARIAN, 0.2)
        for t in (1, 2):
            fps = level_fingerprints(inst, t)
            assert list(fps.values()) == enumerate_valid_committees(inst, t), f"seed {seed}"
            for fp, committee in fps.items():
                assert fp == tuple(int(c in committee) for c in inst.profile[t - 1])


# -- generalized easy specs --------------------------------------------------------


def test_solve_easy_generalized(trip_egalitarian):
    low = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=2, x=0, y=0, m=6)
    result = solve_easy_generalized(low, ComparatorSpec("<=", "<=", "<="))
    assert result.verdict == "yes"
    assert all(c == () for c in result.witness)

    big_k = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=7, x=0, y=0, m=6)
    assert solve_easy_generalized(big_k, ComparatorSpec(">=", ">=", ">=")).verdict == "no"

    ge = solve_easy_generalized(trip_egalitarian, ComparatorSpec(">=", ">=", ">="))
    full = seq((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6))
    expect = verify_generalized(trip_egalitarian, ComparatorSpec(">=", ">=", ">="), full)
    assert (ge.verdict == "yes") == expect.feasible

    assert solve_easy_generalized(trip_egalitarian, EGALITARIAN_SPEC) is None
