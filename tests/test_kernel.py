"""Criticality, the level kernel, and the equitable zero-target rule."""

import random
import time

import pytest

from ecse.kernel import compute_criticality, kernelize_ny, rr_pe_qcse_zero_y
from ecse.model import (
    EGALITARIAN,
    EQUITABLE,
    CommitteeSequence,
    Instance,
    PeInstance,
    greedy_committee,
    rename_candidates,
    row_support,
    verify,
)
from ecse.oracle import brute_solve
from ecse.score_dp import solve_dp
from ecse.generators import random_instance

from conftest import make_instance, TRIP_ROWS


def test_criticality_trip(trip_egalitarian):
    table = compute_criticality(trip_egalitarian)
    # no level-2 committee scoring 4 contains agent 1's nominee (restaurant)
    assert table.z_sets[0] == (1,)
    assert table.threshold == 6


def test_criticality_extremes():
    inst = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=1, x=0, y=1, m=6)
    table = compute_criticality(inst)
    for a0 in range(6):
        nominated = tuple(
            t + 1 for t in range(2) if inst.profile[t][a0] != 0
        )
        assert table.z_sets[a0] == nominated

    high = make_instance(TRIP_ROWS, mode=EGALITARIAN, k=2, x=7, y=1, m=6)
    table = compute_criticality(high)
    assert all(z == () for z in table.z_sets)

    equitable = make_instance(TRIP_ROWS, mode=EQUITABLE, k=1, x=0, y=1, m=6)
    with pytest.raises(ValueError) as err:
        compute_criticality(equitable)
    assert str(err.value) == "criticality is defined for egalitarian instances"
    with pytest.raises(ValueError) as err:
        kernelize_ny(equitable)
    assert str(err.value) == "the level kernel is defined for egalitarian instances"


def test_rr3_resolves_yes():
    inst = make_instance([(1,), (1,)], mode=EGALITARIAN, k=1, x=0, y=1)
    result = kernelize_ny(inst)
    assert result.resolved and result.verdict == "yes"
    assert verify(inst, result.witness).feasible
    assert ("all-non-critical",) in result.rule_log


def test_unscorable_level_resolves_no():
    inst = make_instance([(1, 2), (1, 1)], mode=EGALITARIAN, k=1, x=2, y=0)
    result = kernelize_ny(inst)
    assert result.resolved and result.verdict == "no"
    assert result.rule_log[0][0] == "no-valid-committee"


def test_level_deletion_produces_bounded_kernel():
    # one agent whose nominee never joins a scoring committee pins criticality
    rows = [(1, 1, 2)] * 8 + [(3, 3, 3)]
    inst = make_instance(rows, mode=EGALITARIAN, k=1, x=2, y=1)
    result = kernelize_ny(inst)
    if not result.resolved:
        reduced = result.instance
        assert reduced.tau <= inst.n ** 2 * inst.y
        assert reduced.m <= inst.n
        assert set(result.kept_levels) | set(result.deleted_levels) == set(range(1, inst.tau + 1))
        assert not set(result.kept_levels) & set(result.deleted_levels)


def test_kernel_preserves_verdicts_and_bounds():
    resolved = reduced = 0
    for seed in range(220):
        inst = random_instance(
            seed, n=1 + seed % 4, m=1 + (seed * 3) % 4, tau=1 + (seed * 7) % 30,
            k=seed % 3, x=seed % 3, y=seed % 3,
            mode=EGALITARIAN, empty_prob=(seed % 4) / 10,
        )
        result = kernelize_ny(inst)
        direct = solve_dp(inst).verdict
        if result.resolved:
            resolved += 1
            assert result.verdict == direct, f"seed {seed}"
            if result.witness is not None:
                assert verify(inst, result.witness).feasible
        else:
            reduced += 1
            kernel = result.instance
            assert kernel.tau <= inst.n ** 2 * inst.y
            assert kernel.m <= inst.n
            assert solve_dp(kernel).verdict == direct, f"seed {seed}"
            assert sorted(result.kept_levels + result.deleted_levels) == list(
                range(1, inst.tau + 1)
            )
    assert resolved and reduced


def test_surviving_levels_serve_critical_agents():
    for seed in range(60):
        inst = random_instance(
            seed, n=1 + seed % 4, m=1 + seed % 4, tau=2 + seed % 10,
            k=1 + seed % 2, x=seed % 3, y=1 + seed % 2,
            mode=EGALITARIAN, empty_prob=0.3,
        )
        result = kernelize_ny(inst)
        if result.resolved:
            continue
        kernel = result.instance
        table = compute_criticality(kernel)
        critical_levels = set()
        for a0 in range(kernel.n):
            if table.critical[a0]:
                critical_levels.update(table.z_sets[a0])
        assert critical_levels >= set(range(1, kernel.tau + 1))


def _reference_kernel(inst):
    """The kernel as exhaustive rule application: rebuild the kept
    sub-instance, recompute criticality, resolve yes when nobody is critical,
    otherwise delete the first level no critical agent can use, and repeat.
    Returns ``(verdict, witness, reduced instance, kept, deleted, rule log)``."""
    renamed, renaming = rename_candidates(inst)
    supports = [row_support(row) for row in renamed.profile]
    greedy = [greedy_committee(support, inst.k) for support in supports]
    every = tuple(range(1, inst.tau + 1))
    for t0, support in enumerate(supports):
        if sum(support[c] for c in greedy[t0]) < inst.x:
            return "no", None, None, every, (), (("no-valid-committee", t0 + 1),)
    kept, deleted, log = list(every), [], []
    while kept:
        rows = tuple(renamed.profile[t - 1] for t in kept)
        sub = Instance(EGALITARIAN, inst.n, renamed.m, len(kept), inst.k, inst.x, inst.y, rows)
        table = compute_criticality(sub)
        if not any(table.critical):
            committees = list(greedy)
            claimed = set()
            for a0 in range(inst.n):
                free = [kept[s - 1] for s in table.z_sets[a0] if kept[s - 1] not in claimed]
                assert len(free) >= inst.y
                for t in free[: inst.y]:
                    claimed.add(t)
                    nominee = renamed.profile[t - 1][a0]
                    committees[t - 1] = greedy_committee(supports[t - 1], inst.k, include=nominee)
            log.append(("all-non-critical",))
            witness = renaming.lift(CommitteeSequence.of(committees))
            return "yes", witness, None, tuple(kept), tuple(deleted), tuple(log)
        needed = set()
        for a0 in range(inst.n):
            if table.critical[a0]:
                needed.update(table.z_sets[a0])
        droppable = next((s for s in range(1, len(kept) + 1) if s not in needed), None)
        if droppable is None:
            return None, None, sub, tuple(kept), tuple(deleted), tuple(log)
        deleted.append(kept.pop(droppable - 1))
        log.append(("delete-level", deleted[-1]))
    if inst.y > 0:
        return "no", None, None, (), tuple(deleted), tuple(log)
    witness = renaming.lift(CommitteeSequence.of(greedy))
    return "yes", witness, None, (), tuple(deleted), tuple(log)


def _kernel_inputs():
    """Random egalitarian instances, then ones whose first agent nominates
    nobody: it is critical with no usable level, so no level is needed until
    deletions make other agents critical."""
    for seed in range(700):
        rng = random.Random(seed)
        yield random_instance(
            seed, n=rng.randint(1, 4), m=rng.randint(1, 4), tau=rng.randint(1, 40),
            k=rng.randint(0, 3), x=rng.randint(0, 3), y=rng.randint(0, 3),
            mode=EGALITARIAN, empty_prob=rng.choice((0.0, 0.2, 0.4, 0.6, 0.8)),
        )
    for seed in range(300):
        rng = random.Random(seed)
        n, m, y = rng.randint(2, 4), rng.randint(1, 3), rng.randint(0, 3)
        rows = [
            (0,) + tuple(rng.choice((0, rng.randint(1, m))) for _ in range(n - 1))
            for _ in range(rng.randint(1, 40))
        ]
        k, x = rng.randint(1, 2), rng.randint(0, 2)
        yield make_instance(rows, mode=EGALITARIAN, k=k, x=x, y=y, m=m)


def test_kernel_matches_exhaustive_rule_application():
    promoted = reduced = yes_after_deletions = 0
    for i, inst in enumerate(_kernel_inputs()):
        result = kernelize_ny(inst)
        verdict, witness, instance, kept, deleted, log = _reference_kernel(inst)
        assert result.resolved == (verdict is not None), f"input {i}"
        assert result.verdict == verdict, f"input {i}"
        assert result.witness == witness, f"input {i}"
        assert result.instance == instance, f"input {i}"
        assert (result.kept_levels, result.deleted_levels) == (kept, deleted), f"input {i}"
        assert result.rule_log == log, f"input {i}"
        if deleted and verdict is None:
            reduced += 1
            table = compute_criticality(inst)
            needed = {t for a0, z in enumerate(table.z_sets) if table.critical[a0] for t in z}
            promoted += not set(kept) <= needed
        yes_after_deletions += bool(deleted) and verdict == "yes"
    # deletions that leave a kernel, levels kept only for an agent the
    # deletions made critical, and y = 0 instances emptied to a greedy yes
    assert reduced > 20 and promoted > 10 and yes_after_deletions > 10


def test_kernel_is_one_pass_over_many_levels():
    tau = 2000
    rows = [(1 if t0 % 666 == 0 else 0, 2, 3, 2) for t0 in range(tau)]
    inst = make_instance(rows, mode=EGALITARIAN, k=2, x=1, y=1, m=3)
    started = time.perf_counter()
    result = kernelize_ny(inst)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, f"kernelize took {elapsed:.2f} s"
    assert not result.resolved
    assert result.kept_levels == (1, 667, 1333, 1999)
    assert result.instance.tau <= inst.n ** 2 * inst.y
    assert solve_dp(result.instance).verdict == solve_dp(inst).verdict


def test_zero_target_rule_example():
    pe = PeInstance(EQUITABLE, 2, 2, 1, (1,), (0,), (0, 1), ((1, 1),))
    out = rr_pe_qcse_zero_y(pe)
    assert out.n == 1
    assert out.profile == ((0,),)
    assert out.yvec == (1,)


def test_zero_target_rule_identity_and_removal():
    pe = PeInstance(EQUITABLE, 2, 2, 1, (1,), (0,), (1, 1), ((1, 2),))
    assert rr_pe_qcse_zero_y(pe) is pe
    lonely = PeInstance(EQUITABLE, 1, 2, 2, (1, 1), (0, 0), (0,), ((0,), (0,)))
    out = rr_pe_qcse_zero_y(lonely)
    assert out.n == 0 and out.profile == ((), ())
    with pytest.raises(ValueError):
        rr_pe_qcse_zero_y(PeInstance(EGALITARIAN, 1, 1, 1, (1,), (0,), (0,), ((1,),)))


def test_zero_target_rule_preserves_verdicts():
    import random as _random

    for seed in range(200):
        rng = _random.Random(seed)
        n = 1 + seed % 4
        tau = 1 + seed % 3
        inst = random_instance(
            seed, n=n, m=1 + seed % 3, tau=tau, k=rng.randint(0, 2),
            x=0, y=0, mode=EQUITABLE, empty_prob=0.2,
        )
        pe = PeInstance(
            EQUITABLE, n, inst.m, tau,
            tuple(rng.randint(0, 2) for _ in range(tau)),
            tuple(rng.randint(0, 2) for _ in range(tau)),
            tuple(rng.randint(0, 2) for _ in range(n)),
            inst.profile,
        )
        out = rr_pe_qcse_zero_y(pe)
        assert brute_solve(out).verdict == brute_solve(pe).verdict, f"seed {seed}"
