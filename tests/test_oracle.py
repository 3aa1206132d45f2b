"""Brute-force oracle: worked-example verdicts, determinism, guards."""

import itertools

import pytest

from ecse.model import (
    COMPARATORS,
    EGALITARIAN,
    EGALITARIAN_SPEC,
    EQUITABLE,
    CommitteeSequence,
    ComparatorSpec,
    Instance,
    lift,
    verify,
    verify_generalized,
)
from ecse.oracle import OracleLimitError, OracleLimits, brute_solve, brute_solve_generalized
from ecse.generators import random_instance

from conftest import all_feasible_sequences, make_instance


def test_trip_egalitarian_unique_witness(trip_egalitarian):
    result = brute_solve(trip_egalitarian)
    assert result.verdict == "yes"
    assert result.witness.committees == ((1, 5), (2, 3))
    # uniqueness, by independent product enumeration
    assert all_feasible_sequences(trip_egalitarian) == [result.witness]


def test_trip_equitable(trip_equitable_x3, trip_equitable_x4):
    assert brute_solve(trip_equitable_x4).verdict == "no"
    result = brute_solve(trip_equitable_x3)
    assert result.verdict == "yes"
    report = verify(trip_equitable_x3, result.witness)
    assert report.feasible and set(report.agent_scores) == {1}


def test_oracle_is_deterministic(trip_equitable_x3):
    a = brute_solve(trip_equitable_x3)
    b = brute_solve(trip_equitable_x3)
    assert a.witness == b.witness and a.verdict == b.verdict


def test_oracle_limits():
    inst = random_instance(1, n=9, m=4, tau=2, k=1, x=0, y=0, mode=EGALITARIAN)
    with pytest.raises(OracleLimitError):
        brute_solve(inst)
    big_m = random_instance(2, n=4, m=40, tau=2, k=1, x=0, y=0, mode=EGALITARIAN)
    # renaming shrinks the candidate set below the guard
    assert brute_solve(big_m).verdict == "yes"
    with pytest.raises(OracleLimitError):
        brute_solve(inst, OracleLimits(max_n=4, max_m=4, max_tau=4))


def test_witnesses_verify_on_samples():
    yes = no = 0
    for seed in range(150):
        inst = random_instance(
            seed,
            n=1 + seed % 5,
            m=1 + (seed * 3) % 5,
            tau=1 + seed % 4,
            k=seed % 4,
            x=seed % 3,
            y=seed % 3,
            mode=EGALITARIAN if seed % 2 else EQUITABLE,
            empty_prob=(seed % 4) / 10,
        )
        result = brute_solve(inst)
        if result.verdict == "yes":
            yes += 1
            assert verify(inst, result.witness).feasible
        else:
            no += 1
    assert yes and no


def test_pe_lift_matches_plain(trip_egalitarian, trip_equitable_x3):
    for inst in (trip_egalitarian, trip_equitable_x3):
        plain = brute_solve(inst)
        lifted = brute_solve(lift(inst))
        assert plain.verdict == lifted.verdict
        if plain.verdict == "yes":
            assert verify(inst, lifted.witness).feasible


def test_pe_negative_budget_is_no():
    pe = lift(make_instance([(1,)], mode=EGALITARIAN, k=1, x=0, y=0))
    pe = type(pe)(pe.mode, pe.n, pe.m, pe.tau, (-1,), pe.xvec, pe.yvec, pe.profile)
    assert brute_solve(pe).verdict == "no"


def test_pe_all_zero_targets():
    pe = lift(make_instance([(1, 2), (2, 1)], mode=EGALITARIAN, k=2, x=0, y=0))
    result = brute_solve(pe)
    assert result.verdict == "yes"
    assert result.witness.committees == ((), ())


def test_generalized_all_le_always_yes():
    for seed in range(40):
        inst = random_instance(
            seed, n=1 + seed % 3, m=1 + seed % 3, tau=1 + seed % 3,
            k=seed % 3, x=seed % 3, y=seed % 3, mode=EGALITARIAN, empty_prob=0.2,
        )
        low = Instance(inst.mode, inst.n, inst.m, inst.tau, inst.k, 0, 0, inst.profile)
        result = brute_solve_generalized(low, ComparatorSpec("<=", "<=", "<="))
        assert result.verdict == "yes"


def test_generalized_ge_ge_ge():
    inst = make_instance([(1, 2)], mode=EGALITARIAN, k=3, x=0, y=0, m=2)
    assert brute_solve_generalized(inst, ComparatorSpec(">=", ">=", ">=")).verdict == "no"

    spec = ComparatorSpec(">=", ">=", ">=")
    for seed in range(60):
        inst = random_instance(
            seed, n=1 + seed % 3, m=1 + seed % 3, tau=1 + seed % 3,
            k=seed % 4, x=seed % 3, y=seed % 3, mode=EGALITARIAN, empty_prob=0.2,
        )
        result = brute_solve_generalized(inst, spec)
        if inst.k > inst.m:
            assert result.verdict == "no"
        else:
            full = CommitteeSequence.of([range(1, inst.m + 1)] * inst.tau)
            expected = verify_generalized(inst, spec, full).feasible
            assert (result.verdict == "yes") == expected
        if result.verdict == "yes":
            assert verify_generalized(inst, spec, result.witness).feasible


def test_generalized_equals_plain_modes(trip_egalitarian, trip_equitable_x3, trip_equitable_x4):
    for inst, spec in [
        (trip_egalitarian, ComparatorSpec("<=", ">=", ">=")),
        (trip_equitable_x3, ComparatorSpec("<=", ">=", "=")),
        (trip_equitable_x4, ComparatorSpec("<=", ">=", "=")),
    ]:
        assert brute_solve_generalized(inst, spec).verdict == brute_solve(inst).verdict


def test_pe_respects_candidate_limit():
    # nine agents, nine distinct nominees in the only level
    pe = lift(make_instance([tuple(range(1, 10))], mode=EGALITARIAN, k=1, x=0, y=0))
    with pytest.raises(OracleLimitError):
        brute_solve(pe, OracleLimits(max_n=9, max_m=4, max_tau=2))


def _any_feasible(inst, spec) -> bool:
    """Product enumeration over every subset of every candidate per level."""
    everyone = range(1, inst.m + 1)
    subsets = [c for size in range(inst.m + 1) for c in itertools.combinations(everyone, size)]
    return any(
        verify_generalized(inst, spec, CommitteeSequence(combo)).feasible
        for combo in itertools.product(subsets, repeat=inst.tau)
    )


@pytest.mark.parametrize(
    "ops", list(itertools.product(COMPARATORS, repeat=3)), ids=lambda ops: " ".join(ops)
)
def test_generalized_matches_product_enumeration(ops):
    spec = ComparatorSpec(*ops)
    for seed in range(30):
        inst = random_instance(
            seed, n=1 + seed % 3, m=1 + (seed // 3) % 3, tau=1 + (seed // 2) % 3,
            k=seed % 4, x=seed % 3, y=(seed // 5) % 3, mode=EGALITARIAN, empty_prob=0.2,
        )
        result = brute_solve_generalized(inst, spec)
        assert (result.verdict == "yes") == _any_feasible(inst, spec), f"seed {seed}"
        if result.verdict == "yes":
            assert verify_generalized(inst, spec, result.witness).feasible


@pytest.mark.parametrize("call, error, message", [
    (lambda: OracleLimits(max_n=0), ValueError, "limits must be positive"),
    (lambda: OracleLimits(max_m=0), ValueError, "limits must be positive"),
    (lambda: OracleLimits(max_tau=-1), ValueError, "limits must be positive"),
    (lambda: brute_solve_generalized(make_instance([(1,) * 9]), EGALITARIAN_SPEC),
     OracleLimitError, "n=9, m=1, tau=1 exceed limits OracleLimits(max_n=8, max_m=8, max_tau=6)"),
    (lambda: brute_solve_generalized(make_instance([(1,)], m=9), EGALITARIAN_SPEC),
     OracleLimitError, "n=1, m=9, tau=1 exceed limits OracleLimits(max_n=8, max_m=8, max_tau=6)"),
    (lambda: brute_solve_generalized(make_instance([(1,)] * 7), EGALITARIAN_SPEC),
     OracleLimitError, "n=1, m=1, tau=7 exceed limits OracleLimits(max_n=8, max_m=8, max_tau=6)"),
])
def test_oracle_input_errors_name_the_fault(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
