"""Adversarial cross-checks: hypothesis hunts for solver disagreements.

The seeded sweeps elsewhere cover volume; these properties add shrinking, so
any regression reports a minimal instance.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecse.branching import counting_bound, solve_branch
from ecse.cli import solve_with_algo
from ecse.generators import or_compose, random_instance
from ecse.ip import build_ip, solve_ip
from ecse.kernel import kernelize_ny
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


@st.composite
def duplicated_instances(draw):
    """A small base draw whose level rows and agent columns repeat, in a
    shuffled order, within the oracle's limits (n <= 8, tau <= 6)."""
    base_n, base_tau, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = [[draw(st.integers(0, m)) for _ in range(base_n)] for _ in range(base_tau)]
    copies = st.integers(1, 3)
    columns = draw(st.permutations([a for a in range(base_n) for _ in range(draw(copies))]))
    levels = draw(st.permutations([t for t in range(base_tau) for _ in range(draw(copies))]))
    columns, levels = columns[:8], levels[:6]
    rows = tuple(tuple(base[t][a] for a in columns) for t in levels)
    return Instance(
        draw(st.sampled_from([EGALITARIAN, EQUITABLE])),
        len(columns),
        m,
        len(levels),
        draw(st.integers(0, m)),
        draw(st.integers(0, len(columns))),
        draw(st.integers(0, len(levels))),
        rows,
    )


def assert_every_algo_matches_oracle(inst):
    """``auto``, ``branch``, ``dp``, ``ip`` and, where it applies, ``tau2``
    give the oracle's verdict, and every yes-witness passes ``verify``."""
    truth = brute_solve(inst).verdict
    algos = ["auto", "branch", "dp", "ip"]
    if inst.mode == EQUITABLE and inst.tau == 2:
        algos.append("tau2")
    for algo in algos:
        result, _ = solve_with_algo(inst, algo)
        assert result.verdict == truth, algo
        if result.witness is not None:
            assert verify(inst, result.witness).feasible, algo
    return truth


@given(duplicated_instances())
@settings(max_examples=300, deadline=None)
def test_duplicated_rows_and_columns_match_oracle(inst):
    assert_every_algo_matches_oracle(inst)
    # one type per distinct row, in first-occurrence order, counting its levels
    model = build_ip(inst)
    multiplicity = Counter(inst.profile)
    assert [inst.profile[levels[0] - 1] for levels in model.type_levels] == list(multiplicity)
    assert [len(levels) for levels in model.type_levels] == list(multiplicity.values())
    assert all(inst.profile[t - 1] == inst.profile[levels[0] - 1] for levels in model.type_levels for t in levels)


@st.composite
def or_compositions(draw):
    """``or_compose`` of 2 or 4 two-candidate egalitarian inputs (m = 2,
    k = 1, x = 0, y = 1), within the oracle's limits (n <= 8, tau <= 6)."""
    count = draw(st.sampled_from([2, 4]))
    selectors = count.bit_length() - 1
    tau = draw(st.integers(1, 6 - selectors))
    inputs = []
    for _ in range(count):
        n = draw(st.integers(1, 8 // count))
        rows = tuple(tuple(draw(st.integers(0, 2)) for _ in range(n)) for _ in range(tau))
        inputs.append(Instance(EGALITARIAN, n, 2, tau, 1, 0, 1, rows))
    return inputs


@given(or_compositions())
@settings(max_examples=150, deadline=None)
def test_or_compositions_match_oracle(inputs):
    composed = or_compose(inputs)
    truth = assert_every_algo_matches_oracle(composed)
    # a yes iff some input is
    assert (truth == "yes") == any(brute_solve(inst).verdict == "yes" for inst in inputs)


@st.composite
def kernel_reductions(draw):
    """An egalitarian draw within the oracle's limits that ``kernelize_ny``
    reduces without resolving it, and its reduced instance."""
    n, m, tau = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = tuple(tuple(draw(st.integers(0, m)) for _ in range(n)) for _ in range(tau))
    k, x, y = draw(st.integers(1, 2)), draw(st.integers(0, n)), draw(st.integers(1, 3))
    inst = Instance(EGALITARIAN, n, m, tau, k, x, y, rows)
    reduced = kernelize_ny(inst).instance
    assume(reduced is not None)
    return inst, reduced


@given(kernel_reductions())
@settings(max_examples=150, deadline=None)
def test_kernel_reductions_match_oracle(pair):
    inst, reduced = pair
    assert assert_every_algo_matches_oracle(reduced) == brute_solve(inst).verdict


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


def test_dp_matches_branching_and_the_ip_at_search_cliffs_sizes():
    # the search-cliffs families branch-random and ip-random take the score
    # DP's verdict as their reference, and auto decides them with the DP
    # too, so branching and the integer program check the DP at those sizes
    verdicts = []
    for seed in range(40):
        inst = random_instance(seed, 13, 4, 7, 2, 3, 2, EQUITABLE)
        verdicts.append(solve_dp(inst).verdict)
        assert solve_branch(inst).verdict == verdicts[-1], f"seed {seed}"
    for seed in range(5):
        rows = random_instance(seed, 13, 3, 3, 2, 1, 1, EQUITABLE).profile
        inst = Instance(EQUITABLE, 13, 3, 26, 2, 1, 1, tuple(rows[t % 3] for t in range(26)))
        verdicts.append(solve_dp(inst).verdict)
        assert solve_ip(inst).verdict == verdicts[-1], f"seed {seed}"
    assert "no" in verdicts
