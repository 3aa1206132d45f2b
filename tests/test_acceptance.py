"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All tolerances are exact (zero tolerance) except the stated wall
clock budgets.
"""

import random
import time

from ecse.branching import branch_children, solve_branch
from ecse.generators import (
    gen_3part,
    gen_from_cbvc,
    gen_gcse_3sat,
    gen_gcse_sat,
    gen_nmx,
    gen_qcse_monotone_x13sat,
    gen_qcse_x13sat,
    or_compose,
    random_instance,
)
from ecse.ip import solve_ip
from ecse.kernel import kernelize_ny
from ecse.model import (
    EGALITARIAN,
    EQUITABLE,
    ComparatorSpec,
    Instance,
    lift,
    solve_easy_generalized,
    verify,
)
from ecse.oracle import OracleLimits, brute_solve, brute_solve_generalized
from ecse.score_dp import solve_dp
from ecse.sources import (
    cbvc_has_cover,
    sat_satisfiable,
    three_partition_exists,
    x13sat_satisfiable,
)
from ecse.tau2 import apply_x2_rules, build_cbivcs, solve_cbivcs, solve_qcse_tau2, x2_from_instance

from conftest import (
    TRIP_ROWS,
    all_feasible_sequences,
    forcing_cascade,
    make_instance,
    random_bipartite,
    random_cnf,
    random_occurrence_cnf,
)

GENERATOR_LIMITS = OracleLimits(max_n=24, max_m=8, max_tau=7)


def _passed(name: str) -> None:
    print(f"\nacceptance {name}: PASS")


def suite_instance(seed: int) -> Instance:
    """One member of the seeded oracle-equivalence suite
    (n <= 6, m <= 5, tau <= 4, k <= 3, x <= n, y <= tau, both modes)."""
    rng = random.Random(900_000 + seed)
    n = rng.randint(1, 6)
    m = rng.randint(1, 5)
    tau = rng.randint(1, 4)
    # keep the full stated ranges but favor targets strictly inside 0..tau,
    # where no trivial rule fires
    if tau >= 2 and rng.random() < 0.6:
        y = rng.randint(1, tau - 1)
    else:
        y = rng.randint(0, tau)
    return random_instance(
        seed=1_000_000 + seed,
        n=n,
        m=m,
        tau=tau,
        k=rng.randint(0, 3),
        x=rng.randint(0, n),
        y=y,
        mode=EGALITARIAN if seed % 2 else EQUITABLE,
        empty_prob=rng.choice([0.0, 0.15, 0.35]),
    )


def test_criterion_1_worked_example():
    """Example reproduction: the weekend trip, all back-ends, under 1 s."""
    started = time.perf_counter()
    egal = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=2, x=4, y=1, m=6)
    equit3 = make_instance(TRIP_ROWS, mode=EQUITABLE, k=2, x=3, y=1, m=6)
    equit4 = make_instance(TRIP_ROWS, mode=EQUITABLE, k=2, x=4, y=1, m=6)

    expected = {id(egal): "yes", id(equit3): "yes", id(equit4): "no"}
    for inst in (egal, equit3, equit4):
        backends = [brute_solve, solve_branch, solve_dp, solve_ip]
        if inst.mode == EQUITABLE and inst.tau == 2:
            backends.append(solve_qcse_tau2)
        for backend in backends:
            result = backend(inst)
            assert result.verdict == expected[id(inst)], backend.__name__
            if result.witness is not None:
                assert verify(inst, result.witness).feasible

    unique = brute_solve(egal)
    assert unique.witness.committees == ((1, 5), (2, 3))
    assert all_feasible_sequences(egal) == [unique.witness]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed("criterion 1 (worked example, all back-ends, < 1 s)")


def test_criterion_2_oracle_equivalence_suite():
    """1000 seeded instances: optimized solvers match the oracle exactly;
    on the target-one equitable two-level ones every back-end's stats are
    repeatable counters."""
    started = time.perf_counter()
    checked = counters_checked = 0
    for seed in range(1000):
        inst = suite_instance(seed)
        truth = brute_solve(inst)
        results = {
            "branch": solve_branch(inst),
            "dp": solve_dp(inst),
            "ip": solve_ip(inst),
        }
        if inst.mode == EQUITABLE and inst.tau == 2:
            results["tau2"] = solve_qcse_tau2(inst)
        for name, result in results.items():
            assert result.verdict == truth.verdict, f"{name} differs on seed {seed}"
            if result.witness is not None:
                assert verify(inst, result.witness).feasible, f"{name} witness, seed {seed}"
        if "tau2" in results and inst.y == 1:
            # stats hold deterministic counters only: no wall time, and a
            # repeat call reports the same counters
            solvers = {"brute": brute_solve, "branch": solve_branch, "dp": solve_dp,
                       "ip": solve_ip, "tau2": solve_qcse_tau2}
            for name, result in {"brute": truth, **results}.items():
                assert "elapsed_micros" not in result.stats, f"{name} stats, seed {seed}"
                assert solvers[name](inst).stats == result.stats, f"{name} repeat, seed {seed}"
            counters_checked += 1
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 1000
    assert counters_checked > 0
    assert elapsed < 300, f"took {elapsed:.0f}s"
    _passed(f"criterion 2 (1000-instance oracle equivalence, {elapsed:.0f}s)")


def test_criterion_3_reduction_soundness():
    """Each generator: source verdict equals generated-instance verdict."""
    started = time.perf_counter()

    count = 200
    for seed in range(count):
        rng = random.Random(10_000 + seed)
        graph = random_bipartite(rng)
        k = rng.randint(0, 3)
        inst = gen_from_cbvc(graph, k)
        assert (brute_solve(inst, GENERATOR_LIMITS).verdict == "yes") == cbvc_has_cover(
            graph, k, k
        ), f"cbvc seed {seed}"

    for seed in range(count):
        rng = random.Random(20_000 + seed)
        cnf = random_cnf(rng, rng.randint(1, 4), rng.randint(1, 6))
        inst = gen_gcse_sat(cnf)
        assert (brute_solve(inst, GENERATOR_LIMITS).verdict == "yes") == sat_satisfiable(
            cnf
        ), f"sat seed {seed}"

    for seed in range(count):
        rng = random.Random(30_000 + seed)
        num_vars = 2 if seed % 10 else 3
        cnf = random_cnf(rng, num_vars, rng.randint(1, 3))
        inst = gen_gcse_3sat(cnf)
        assert (brute_solve(inst, GENERATOR_LIMITS).verdict == "yes") == sat_satisfiable(
            cnf
        ), f"3sat seed {seed}"

    for seed in range(count):
        rng = random.Random(40_000 + seed)
        num_vars = 2 if seed % 10 else 3
        cnf = random_cnf(rng, num_vars, rng.randint(1, 3))
        inst = gen_qcse_x13sat(cnf)
        assert (
            brute_solve(inst, GENERATOR_LIMITS).verdict == "yes"
        ) == x13sat_satisfiable(cnf), f"x13sat seed {seed}"

    for seed in range(count):
        rng = random.Random(50_000 + seed)
        cnf = random_cnf(rng, rng.randint(1, 3), rng.randint(1, 3), monotone=True)
        inst = gen_qcse_monotone_x13sat(cnf)
        assert (
            brute_solve(inst, GENERATOR_LIMITS).verdict == "yes"
        ) == x13sat_satisfiable(cnf), f"monotone seed {seed}"

    for seed in range(count // 2):
        rng = random.Random(60_000 + seed)
        cnf = random_occurrence_cnf(rng, 3, monotone=False)
        inst = gen_nmx(cnf, EGALITARIAN)
        assert (brute_solve(inst, GENERATOR_LIMITS).verdict == "yes") == sat_satisfiable(
            cnf
        ), f"nmx-egal seed {seed}"
    for seed in range(count // 2):
        rng = random.Random(65_000 + seed)
        cnf = random_occurrence_cnf(rng, rng.choice([3, 4]), monotone=True)
        inst = gen_nmx(cnf, EQUITABLE)
        assert (
            brute_solve(inst, GENERATOR_LIMITS).verdict == "yes"
        ) == x13sat_satisfiable(cnf), f"nmx-equit seed {seed}"

    for seed in range(count):
        rng = random.Random(70_000 + seed)
        q = rng.choice([1, 2])
        units = []
        for _ in range(2 ** q):
            agents = rng.randint(1, 2)
            rows = (tuple(rng.randint(1, 2) for _ in range(agents)),)
            units.append(Instance(EGALITARIAN, agents, 2, 1, 1, 0, 1, rows))
        composed = or_compose(units)
        assert composed.tau == 1 + q
        expected = any(brute_solve(u).verdict == "yes" for u in units)
        assert (
            brute_solve(composed, GENERATOR_LIMITS).verdict == "yes"
        ) == expected, f"or seed {seed}"

    part_limits = OracleLimits(max_n=14, max_m=8, max_tau=6)
    for seed in range(count):
        rng = random.Random(80_000 + seed)
        groups = rng.choice([1, 2])
        while True:
            values = [rng.randint(1, 4) for _ in range(3 * groups)]
            if sum(values) % groups == 0 and sum(values) <= 13:
                break
        expected = three_partition_exists(values)
        mode = EGALITARIAN if seed % 2 else EQUITABLE
        inst = gen_3part(values, mode)
        assert (brute_solve(inst, part_limits).verdict == "yes") == expected, f"3part seed {seed}"

    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"took {elapsed:.0f}s"
    _passed(f"criterion 3 (reduction soundness, 8 generators x >= 200, {elapsed:.0f}s)")


def test_criterion_4_kernel_bounds():
    """500 egalitarian instances with tau up to 50: bounds and equivalence."""
    resolved = reduced = 0
    for seed in range(500):
        rng = random.Random(200_000 + seed)
        n = rng.randint(1, 4)
        inst = random_instance(
            seed=300_000 + seed,
            n=n,
            m=rng.randint(1, 4),
            tau=rng.randint(1, 50),
            k=rng.randint(0, 3),
            x=rng.randint(0, n),
            y=rng.randint(0, 2),
            mode=EGALITARIAN,
            empty_prob=rng.choice([0.0, 0.2, 0.4]),
        )
        direct = solve_dp(inst).verdict
        result = kernelize_ny(inst)
        if result.resolved:
            resolved += 1
            assert result.verdict == direct, f"seed {seed}"
            if result.witness is not None:
                assert verify(inst, result.witness).feasible, f"seed {seed}"
        else:
            reduced += 1
            kernel = result.instance
            assert kernel.tau <= inst.n ** 2 * inst.y, f"seed {seed}"
            assert kernel.m <= inst.n, f"seed {seed}"
            assert solve_dp(kernel).verdict == direct, f"seed {seed}"
            if kernel.k * kernel.tau <= 12:
                assert solve_branch(kernel).verdict == direct, f"seed {seed}"
    assert resolved and reduced
    _passed(
        f"criterion 4 (kernel bounds + equivalence on 500, {resolved} resolved / {reduced} reduced)"
    )


def _tau2_full_side_invariant(inst: Instance) -> None:
    x2 = apply_x2_rules(x2_from_instance(inst))
    if x2 is None:
        return
    graph = build_cbivcs(x2)
    cover = solve_cbivcs(graph)
    if cover is None:
        return
    for comp in graph.components:
        left = {(1, c) for c in comp.left}
        right = {(2, c) for c in comp.right}
        assert left <= cover or right <= cover


def test_criterion_5_tau2_scaling():
    """Equitable two-level instances with 10000 agents solve in < 5 s."""
    cases = []
    cases.append(random_instance(1, n=10_000, m=40, tau=2, k=20, x=4000, y=1,
                                 mode=EQUITABLE, empty_prob=0.0))

    # forcing cascades at scale: 100 three-agent chains whose single-nomination
    # agents trigger the forcing rule twice each, plus block-random filler
    cases.append(forcing_cascade(10_000, chains=100, groups=97, k=500, seed=2))

    # block-structured nominations: many graph components, nontrivial x
    rng = random.Random(3)
    groups = 50
    row1, row2 = [], []
    for a in range(10_000):
        g = a % groups
        row1.append(4 * g + rng.randint(1, 2))
        row2.append(4 * g + rng.randint(3, 4))
    cases.append(Instance(EQUITABLE, 10_000, 4 * groups, 2, 80, 4500, 1,
                          (tuple(row1), tuple(row2))))

    verdicts = []
    forced = 0
    for case in cases:
        started = time.perf_counter()
        result = solve_qcse_tau2(case)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        if result.witness is not None:
            assert verify(case, result.witness).feasible
        _tau2_full_side_invariant(case)
        verdicts.append(result.verdict)
        forced += result.stats.get("forced", 0)
    assert verdicts.count("yes") >= 2  # witness extraction must be exercised
    assert forced >= 200  # and so must the forcing rule, at scale
    _passed(f"criterion 5 (tau=2 at n=10000 in < 5 s each, verdicts {verdicts})")


def test_criterion_6_branching_structure():
    """Depth/width bounds on the suite; node-wise OR-equivalence on 300."""
    for seed in range(0, 1000, 3):
        inst = suite_instance(seed)
        pe = lift(inst)
        result = solve_branch(pe)
        assert result.stats["max_depth"] <= min(inst.n, sum(pe.kvec)), f"seed {seed}"
        assert result.stats["max_children"] <= 2 ** inst.tau, f"seed {seed}"

    checked = 0
    seed = 0
    while checked < 300:
        seed += 1
        rng = random.Random(400_000 + seed)
        n = rng.randint(1, 5)
        inst = random_instance(
            seed=500_000 + seed, n=n, m=rng.randint(1, 4), tau=rng.randint(1, 3),
            k=rng.randint(0, 3), x=rng.randint(0, 2), y=rng.randint(1, 2),
            mode=EGALITARIAN if seed % 2 else EQUITABLE, empty_prob=0.2,
        )
        pe = lift(inst)
        agent = None
        for a in range(1, pe.n + 1):
            nz = sum(1 for t0 in range(pe.tau) if pe.profile[t0][a - 1] != 0)
            if pe.yvec[a - 1] > 0 and nz >= pe.yvec[a - 1]:
                agent = a
                break
        if agent is None:
            continue
        checked += 1
        parent = brute_solve(pe).verdict
        verdicts = [brute_solve(child).verdict for child in branch_children(pe, agent)]
        assert (parent == "yes") == ("yes" in verdicts), f"seed {seed}"
    _passed("criterion 6 (branch depth/width bounds; OR-equivalence on 300)")


def test_criterion_7_dp_table_bounds():
    """Frontier sizes within (y+1)^n; the equitable overshoot cut keeps the
    oracle's verdict."""
    for seed in range(0, 1000, 3):
        inst = suite_instance(seed)
        result = solve_dp(inst)
        assert result.stats["max_frontier"] <= (inst.y + 1) ** inst.n, f"seed {seed}"

    for seed in range(400):
        rng = random.Random(600_000 + seed)
        n = rng.randint(1, 4)
        inst = random_instance(
            seed=700_000 + seed, n=n, m=rng.randint(1, 4), tau=rng.randint(1, 4),
            k=rng.randint(0, 3), x=rng.randint(0, n), y=rng.randint(0, 3),
            mode=EQUITABLE, empty_prob=rng.choice([0.0, 0.25]),
        )
        assert solve_dp(inst).verdict == brute_solve(inst).verdict, f"seed {seed}"
    _passed("criterion 7 (DP frontier bound; equitable DP == oracle on n <= 4)")


def test_criterion_8_generalized_comparators():
    """Extreme-committee checks match the generalized oracle on tiny instances."""
    specs = [ComparatorSpec("<=", "<=", "<="), ComparatorSpec(">=", ">=", ">=")]
    cases = 0
    for n in (0, 1, 2, 3):
        for m in (0, 1, 2, 3):
            for tau in (1, 2, 3):
                for sample in range(6):
                    inst_base = random_instance(
                        seed=800_000 + cases, n=n, m=m, tau=tau, k=0, x=0, y=0,
                        mode=EGALITARIAN, empty_prob=0.25 if sample % 2 else 0.0,
                    )
                    for k in (0, 1, m, m + 1):
                        for spec in specs:
                            if spec.cmp_x == "<=":
                                x = y = 0  # the polynomial case fixes both at zero
                            else:
                                x, y = sample % 3, sample % 2
                            inst = Instance(
                                EGALITARIAN, n, m, tau, k, x, y, inst_base.profile
                            )
                            fast = solve_easy_generalized(inst, spec)
                            slow = brute_solve_generalized(inst, spec)
                            assert fast is not None
                            assert fast.verdict == slow.verdict, (n, m, tau, k, spec)
                            if fast.witness is not None:
                                from ecse.model import verify_generalized

                                assert verify_generalized(inst, spec, fast.witness).feasible
                            cases += 1
    assert cases >= 500
    _passed(f"criterion 8 (generalized comparator extremes, {cases} cases)")
