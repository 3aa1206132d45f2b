"""Adversarial cross-checks: hypothesis hunts for solver disagreements.

The seeded sweeps elsewhere cover volume; these properties add shrinking, so
any regression reports a minimal instance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecse.branching import counting_bound, solve_branch
from ecse.cli import solve_with_algo
from ecse.ip import solve_ip
from ecse.model import (
    EGALITARIAN,
    EQUITABLE,
    Instance,
    PeInstance,
    lift,
    trivial_solve,
    verify,
)
from ecse.oracle import brute_solve
from ecse.score_dp import solve_dp
from ecse.tau2 import solve_qcse_tau2


@st.composite
def tiny_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    tau = draw(st.integers(1, 3))
    rows = tuple(tuple(draw(st.integers(0, m)) for _ in range(n)) for _ in range(tau))
    return Instance(
        draw(st.sampled_from([EGALITARIAN, EQUITABLE])),
        n,
        m,
        tau,
        draw(st.integers(0, 3)),
        draw(st.integers(0, n)),
        draw(st.integers(0, tau)),
        rows,
    )


@given(tiny_instances())
@settings(max_examples=120, deadline=None)
def test_all_backends_match_oracle(inst):
    truth = brute_solve(inst).verdict
    for solver in (solve_branch, solve_dp, solve_ip):
        result = solver(inst)
        assert result.verdict == truth
        if result.witness is not None:
            assert verify(inst, result.witness).feasible


@st.composite
def tiny_pe_instances(draw):
    """Pre-elected instances whose budgets, thresholds and targets range
    over -1..3, with empty nominations."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(1, 4))
    tau = draw(st.integers(1, 3))
    rows = tuple(tuple(draw(st.integers(0, m)) for _ in range(n)) for _ in range(tau))
    vector = st.integers(-1, 3)
    return PeInstance(
        draw(st.sampled_from([EGALITARIAN, EQUITABLE])),
        n,
        m,
        tau,
        tuple(draw(vector) for _ in range(tau)),
        tuple(draw(vector) for _ in range(tau)),
        tuple(draw(vector) for _ in range(n)),
        rows,
    )


@given(st.one_of(tiny_instances().map(lift), tiny_pe_instances()))
@settings(max_examples=300, deadline=None)
def test_counting_bound_never_refutes_a_yes(pe):
    assert counting_bound(pe) or brute_solve(pe).verdict == "no"


@st.composite
def tiny_tau2_instances(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    rows = tuple(tuple(draw(st.integers(0, m)) for _ in range(n)) for _ in range(2))
    return Instance(EQUITABLE, n, m, 2, draw(st.integers(0, 3)), draw(st.integers(0, n)), 1, rows)


@given(tiny_tau2_instances())
@settings(max_examples=120, deadline=None)
def test_tau2_matches_oracle(inst):
    result = solve_qcse_tau2(inst)
    assert result.verdict == brute_solve(inst).verdict
    if result.witness is not None:
        assert verify(inst, result.witness).feasible


@pytest.mark.parametrize("mode", [EGALITARIAN, EQUITABLE])
@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("x", [0, 1])
def test_no_agents_with_target_above_tau(mode, tau, x):
    # with nobody to satisfy, y > tau constrains nothing; only x can fail
    inst = Instance(mode, 0, 0, tau, 0, x, tau + 1, ((),) * tau)
    truth = brute_solve(inst).verdict
    results = [trivial_solve(inst), solve_with_algo(inst, "auto")[0]]
    if mode == EQUITABLE and tau == 2:
        results.append(solve_qcse_tau2(inst))
    for result in results:
        assert result.verdict == truth
        if result.witness is not None:
            assert verify(inst, result.witness).feasible
