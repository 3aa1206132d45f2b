"""Fingerprint branching: children semantics, solver verdicts, search bounds."""

import copy
import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings

from ecse.branching import (
    _children,
    _pick_agent,
    _Search,
    branch_children,
    counting_bound,
    solve_branch,
)
from ecse.kernel import rr_pe_qcse_zero_y
from ecse.model import (
    COMPARATORS,
    EGALITARIAN,
    EQUITABLE,
    MAX_NODES,
    CommitteeSequence,
    ComparatorSpec,
    EnumerationLimitError,
    PeInstance,
    UndecidedError,
    enumerate_valid_committees,
    greedy_committee,
    lift,
    row_support,
    valid_committees,
    verify,
    verify_generalized,
)
from ecse.oracle import brute_solve
from ecse.generators import random_instance

from conftest import TRIP_ROWS, instances, make_instance


def test_lift_trip(trip_egalitarian):
    pe = lift(trip_egalitarian)
    assert pe.kvec == (2, 2)
    assert pe.xvec == (4, 4)
    assert pe.yvec == (1,) * 6
    assert pe.profile == trip_egalitarian.profile
    # distinct (k, x, y) always lift to distinct vectors
    other = make_instance(TRIP_ROWS, mode=trip_egalitarian.mode, k=2, x=4, y=0, m=6)
    assert lift(other) != pe


def test_lift_preserves_verdicts():
    for seed in range(120):
        inst = random_instance(
            seed, n=1 + seed % 4, m=1 + seed % 4, tau=1 + seed % 3,
            k=seed % 3, x=seed % 3, y=seed % 3,
            mode=EGALITARIAN if seed % 2 else EQUITABLE, empty_prob=0.25,
        )
        assert brute_solve(lift(inst)).verdict == brute_solve(inst).verdict


def _branch_outcome(inst, max_nodes):
    try:
        return solve_branch(inst, max_nodes=max_nodes)
    except UndecidedError as exc:
        return str(exc)


def test_a_plain_instance_reads_as_its_lift():
    # the readers of the per-level and per-agent vectors take a plain
    # instance as it is; each must answer exactly as on its lift
    rng = random.Random(5)
    for seed in range(200):
        m, tau = 1 + seed % 4, 1 + seed // 4 % 4
        inst = random_instance(
            seed, n=seed % 6, m=m, tau=tau, k=seed % 3, x=seed % 4, y=(seed // 2) % 3,
            mode=EGALITARIAN if seed % 2 else EQUITABLE, empty_prob=0.3 if seed % 3 else 0.0,
        )
        pe = lift(inst)
        for _ in range(4):
            seq = CommitteeSequence.of(rng.sample(range(1, m + 1), rng.randint(0, m)) for _ in range(tau))
            spec = ComparatorSpec(*(rng.choice(list(COMPARATORS)) for _ in range(3)))
            assert verify(inst, seq) == verify(pe, seq)
            assert verify_generalized(inst, spec, seq) == verify_generalized(pe, spec, seq)
        for t in range(1, tau + 1):
            assert enumerate_valid_committees(inst, t) == enumerate_valid_committees(pe, t)
        assert counting_bound(inst) == counting_bound(pe)
        for max_nodes in (1, MAX_NODES):
            assert _branch_outcome(inst, max_nodes) == _branch_outcome(pe, max_nodes)


def _choices(pe, a0):
    """Elected-level sets of the fingerprints that the search applies for
    agent ``a0`` at the root of ``pe``, in the order it tries them."""
    return [node.trail[-1][1] for node in _children(_Search(pe), a0)]


def test_agent_fingerprints_trip(trip_egalitarian, trip_equitable_x3):
    # a fingerprint is given by its set of elected levels (0-based)
    choices = _choices(lift(trip_egalitarian), 0)
    assert choices == [(0,), (1,), (0, 1)]
    assert all(len(chosen) >= 1 for chosen in choices)
    assert _choices(lift(trip_equitable_x3), 0) == [(0,), (1,)]


def test_branch_children_updates(trip_egalitarian):
    pe = lift(trip_egalitarian)
    children = branch_children(pe, 1)
    assert len(children) == 3
    # first fingerprint: elect the nominee in level 1 only
    child = children[0]
    assert child.n == 5
    assert child.kvec == (1, 2)
    assert child.xvec == (2, 4)  # two agents nominate candidate 1 in level 1
    assert child.yvec == (1, 0, 1, 1, 1)  # agent 3 shares the elected nominee
    assert child.profile == ((5, 0, 5, 3, 4), (3, 2, 6, 2, 3))


def test_branch_children_preconditions(trip_egalitarian):
    pe = lift(trip_egalitarian)
    with pytest.raises(IndexError):
        branch_children(pe, 9)
    zero = PeInstance(pe.mode, pe.n, pe.m, pe.tau, pe.kvec, pe.xvec, (0,) * 6, pe.profile)
    with pytest.raises(ValueError):
        branch_children(zero, 1)
    starved = PeInstance(pe.mode, pe.n, pe.m, pe.tau, pe.kvec, pe.xvec, (3,) * 6, pe.profile)
    with pytest.raises(ValueError):
        branch_children(starved, 1)


def test_branch_children_or_equivalence():
    """Parent yes iff some child yes, for the chosen agent, node-wise."""
    checked = 0
    for seed in range(300):
        inst = random_instance(
            seed, n=1 + seed % 4, m=1 + (seed * 5) % 4, tau=1 + seed % 3,
            k=seed % 3, x=seed % 3, y=1 + seed % 2,
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
        children = branch_children(pe, agent)
        child_verdicts = [brute_solve(child).verdict for child in children]
        assert (parent == "yes") == ("yes" in child_verdicts)
    assert checked >= 200


def test_solve_trip_egalitarian(trip_egalitarian):
    result = solve_branch(lift(trip_egalitarian))
    assert result.verdict == "yes"
    assert verify(trip_egalitarian, result.witness).feasible
    assert result.witness.committees[0] == (1, 5)


def test_negative_budget_is_no(trip_egalitarian):
    pe = lift(trip_egalitarian)
    pe = PeInstance(pe.mode, pe.n, pe.m, pe.tau, (-1, 2), pe.xvec, pe.yvec, pe.profile)
    result = solve_branch(pe)
    assert result.verdict == "no"
    assert result.stats["nodes_expanded"] == 1


def test_terminal_success_path():
    inst = make_instance([(1, 2), (2, 1)], mode=EGALITARIAN, k=1, x=0, y=0)
    result = solve_branch(lift(inst))
    assert result.verdict == "yes"
    assert result.witness.committees == ((), ())


def test_solve_trip_equitable(trip_equitable_x3, trip_equitable_x4):
    result = solve_branch(lift(trip_equitable_x3))
    assert result.verdict == "yes"
    report = verify(trip_equitable_x3, result.witness)
    assert report.feasible and set(report.agent_scores) == {1}
    assert solve_branch(lift(trip_equitable_x4)).verdict == "no"


def test_equitable_rejects_starved_agent_without_branching():
    inst = make_instance([(1, 0), (0, 0)], mode=EQUITABLE, k=1, x=0, y=2)
    result = solve_branch(lift(inst))
    assert result.verdict == "no"
    assert result.stats["fingerprints_tried"] == 0


def test_verdicts_and_bounds_against_oracle():
    for seed in range(250):
        inst = random_instance(
            seed, n=1 + seed % 5, m=1 + (seed * 3) % 5, tau=1 + seed % 4,
            k=seed % 4, x=seed % 4, y=seed % 3,
            mode=EGALITARIAN if seed % 2 else EQUITABLE, empty_prob=(seed % 3) / 8,
        )
        pe = lift(inst)
        result = solve_branch(pe)
        assert result.verdict == brute_solve(inst).verdict, f"seed {seed}"
        if result.witness is not None:
            assert verify(inst, result.witness).feasible
            assert verify(pe, result.witness).feasible
        assert result.stats["max_depth"] <= min(inst.n, sum(pe.kvec))
        assert result.stats["max_children"] <= 2 ** inst.tau


def test_solve_branch_dispatch(trip_egalitarian, trip_equitable_x3):
    assert solve_branch(trip_egalitarian).verdict == "yes"
    assert solve_branch(trip_equitable_x3).verdict == "yes"
    assert solve_branch(lift(trip_egalitarian)).verdict == "yes"
    assert solve_branch(lift(trip_equitable_x3)).verdict == "yes"


def test_fingerprint_type_invariants(trip_equitable_x3):
    pe = lift(trip_equitable_x3)
    for a0 in range(6):
        for chosen in _choices(pe, a0):
            assert isinstance(chosen, tuple)
            assert list(chosen) == sorted(set(chosen))
            assert all(0 <= t0 < pe.tau for t0 in chosen)
            for t0 in chosen:
                assert pe.profile[t0][a0] != 0
            assert len(chosen) == pe.yvec[a0]


def _random_pe(seed):
    """Seeded pre-elected instance of either mode whose bounds and targets
    scatter around a common value, within -1..3."""
    rng = random.Random(seed)
    n, m, tau = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 5)
    mode = rng.choice((EGALITARIAN, EQUITABLE))
    empty = rng.choice((0.0, 0.1, 0.25, 0.5))
    profile = random_instance(seed, n, m, tau, 0, 0, 0, mode, empty).profile

    def around(base, size):
        return tuple(max(-1, min(3, base + rng.choice((-1, 0, 0, 0, 1)))) for _ in range(size))

    kvec, xvec = around(rng.randint(1, 3), tau), around(rng.randint(0, 2), tau)
    return PeInstance(mode, n, m, tau, kvec, xvec, around(rng.randint(0, 2), n), profile)


def test_equitable_children_have_no_satisfied_agents():
    branched = 0
    for seed in range(400):
        pe = _random_pe(seed)
        if pe.mode != EQUITABLE:
            continue
        for a0, y in enumerate(pe.yvec):
            if 0 < y <= sum(1 for row in pe.profile if row[a0] != 0):
                for child in branch_children(pe, a0 + 1):
                    branched += 1
                    assert 0 not in child.yvec, f"seed {seed}, agent {a0 + 1}"
    assert branched > 200


def test_egalitarian_count_closed_form_equals_the_explicit_sum():
    # _pick_agent counts the level sets of at least y of d levels from the
    # complement; y = d + 1 leaves none
    for d in range(13):
        for y in range(1, d + 2):
            explicit = sum(comb(d, s) for s in range(y, d + 1))
            assert (1 << d) - sum(comb(d, s) for s in range(y)) == explicit, (d, y)


def _pick_by_explicit_sum(node):
    """``_pick_agent`` with the egalitarian count summed over s >= y."""
    best = best_count = None
    for a0, (alive, y) in enumerate(zip(node.alive, node.yvec)):
        if alive and y > 0:
            d = len(node.levels(a0))
            count = comb(d, y) if node.equitable else sum(comb(d, s) for s in range(y, d + 1))
            if count == 0:
                return None
            if best is None or count < best_count:
                best, best_count = a0, count
    return best


def test_pick_agent_matches_the_explicit_count():
    picked = 0
    for seed in range(400):
        node = _Search(_random_pe(seed))
        pick = _pick_agent(node)
        assert pick == _pick_by_explicit_sum(node), f"seed {seed}"
        picked += pick is not None and not node.equitable
    assert picked > 100


def _reference_child(pe, a0, chosen):
    """Agent ``a0`` committed to electing its nominees at ``chosen``: only
    ``a0`` is struck, its nominee's nominations erased at every level."""
    elected = {t0: pe.profile[t0][a0] for t0 in chosen}
    kvec = tuple(k - (t0 in elected) for t0, k in enumerate(pe.kvec))
    xvec = tuple(
        x - (pe.profile[t0].count(elected[t0]) if t0 in elected else 0)
        for t0, x in enumerate(pe.xvec)
    )
    keep = [b0 for b0 in range(pe.n) if b0 != a0]
    yvec = tuple(pe.yvec[b0] - sum(pe.profile[t0][b0] == elected[t0] for t0 in chosen) for b0 in keep)
    rows = tuple(
        tuple(0 if row[a0] != 0 and row[b0] == row[a0] else row[b0] for b0 in keep)
        for row in pe.profile
    )
    return PeInstance(pe.mode, pe.n - 1, pe.m, pe.tau, kvec, xvec, yvec, rows)


def test_branch_children_match_reference_child():
    # each child is applied in place, copied out and undone; undoing every
    # child leaves the search state exactly as it was built
    branched = 0
    for seed in range(400):
        pe = _random_pe(seed)
        for a0, y in enumerate(pe.yvec):
            if not 0 < y <= sum(1 for row in pe.profile if row[a0] != 0):
                continue
            expected = [_reference_child(pe, a0, chosen) for chosen in _choices(pe, a0)]
            if pe.mode == EQUITABLE:
                expected = [rr_pe_qcse_zero_y(child) for child in expected]
            assert branch_children(pe, a0 + 1) == expected, f"seed {seed}, agent {a0 + 1}"
            node = _Search(pe)
            built = copy.deepcopy(vars(node))
            for _ in _children(node, a0):
                assert vars(node) != built, f"seed {seed}, agent {a0 + 1}"
            assert vars(node) == built, f"seed {seed}, agent {a0 + 1}"
            assert node.snapshot() == pe
            branched += len(expected)
    assert branched > 1000


def _reference_bound(pe):
    """``counting_bound`` by enumeration: the scores of every committee of at
    most k nominated candidates, counted over the open agents, as sets."""
    open_agents = [a0 for a0 in range(pe.n) if pe.yvec[a0] > 0]
    need = sum(pe.yvec[a0] for a0 in open_agents)
    reach, best = {0}, 0
    for row, k, x in zip(pe.profile, pe.kvec, pe.xvec):
        if k < 0:
            return False
        nominated = sorted(set(row) - {0})
        committees = [
            set(combo) for size in range(min(k, len(nominated)) + 1)
            for combo in itertools.combinations(nominated, size)
        ]
        scores = [sum(row[a0] in chosen for a0 in open_agents) for chosen in committees]
        if pe.mode == EQUITABLE:
            reach = {r + s for r in reach for s in scores if s >= x}
        else:
            if max(sum(c in chosen for c in row) for chosen in committees) < x:
                return False
            best += max(scores)
    return need in reach if pe.mode == EQUITABLE else need <= best


def _reference_branch(pe, bound=True):
    """Fingerprint DFS applying the zero-target rule at every equitable node;
    branches on the open agent with the fewest fingerprints (lowest index on
    ties) and tries its level sets by size, then lexicographically.  With
    ``bound``, a node that still has an open agent is pruned first if
    ``_reference_bound`` refutes it."""
    equitable = pe.mode == EQUITABLE
    stats = {
        "nodes_expanded": 0, "fingerprints_tried": 0, "max_depth": 0, "max_children": 0,
        "bound_prunes": 0,
    }

    def choices(cur, a0):
        levels = [t0 for t0 in range(cur.tau) if cur.profile[t0][a0] != 0]
        y = cur.yvec[a0]
        sizes = [y] if equitable else range(y, len(levels) + 1)
        return [c for size in sizes for c in itertools.combinations(levels, size)]

    def node(cur, depth):
        stats["nodes_expanded"] += 1
        if any(k < 0 for k in cur.kvec) or (equitable and any(y < 0 for y in cur.yvec)):
            return None
        stats["max_depth"] = max(stats["max_depth"], depth)
        if equitable:
            cur = rr_pe_qcse_zero_y(cur)
        if all(y <= 0 for y in cur.yvec):
            committees = [set() for _ in range(cur.tau)]
            for t0, row in enumerate(cur.profile):
                if cur.xvec[t0] > 0:
                    support = row_support(row)
                    top = greedy_committee(support, cur.kvec[t0])
                    if sum(support[c] for c in top) < cur.xvec[t0]:
                        return None
                    committees[t0] = set(top)
            return committees
        if bound and not _reference_bound(cur):
            stats["bound_prunes"] += 1
            return None
        options = {a0: choices(cur, a0) for a0 in range(cur.n) if cur.yvec[a0] > 0}
        a0 = min(options, key=lambda b0: len(options[b0]))
        for i, chosen in enumerate(options[a0], 1):
            stats["fingerprints_tried"] += 1
            stats["max_children"] = max(stats["max_children"], i)
            sub = node(_reference_child(cur, a0, chosen), depth + 1)
            if sub is not None:
                return [s | {cur.profile[t0][a0]} if t0 in chosen else s for t0, s in enumerate(sub)]
        return None

    witness = node(pe, 0)
    if witness is None:
        return None, stats
    return [tuple(sorted(s)) for s in witness], stats


def test_counting_bound_matches_enumeration():
    checked = refuted = 0
    for seed in range(1000):
        pe = _random_pe(seed)
        nodes = [pe] + [
            child for a0, y in enumerate(pe.yvec)
            if 0 < y <= sum(1 for row in pe.profile if row[a0] != 0)
            for child in branch_children(pe, a0 + 1)
        ]
        for node in nodes:
            expected = _reference_bound(node)
            assert counting_bound(node) == expected, f"seed {seed}"
            checked += 1
            refuted += not expected
    assert checked > 3000 and refuted > 500


def _greedy_leaf_check(pe):
    """The leaf test branching ran before the counting bound decided its
    leaves: each level with a positive threshold reaches it with its greedy
    committee of at most ``kvec[t]`` candidates."""
    for row, k, x in zip(pe.profile, pe.kvec, pe.xvec):
        if x > 0:
            support = row_support(row)
            if sum(support[c] for c in greedy_committee(support, k)) < x:
                return False
    return True


def test_counting_bound_decides_leaves_like_the_greedy_check():
    # leaves as the search meets them: no budget below 0 and no target above
    # it; an equitable leaf has no negative target either (the search prunes
    # those first) and loses its satisfied agents to the zero-target rule
    rng = random.Random(14)
    seen = {(mode, verdict): 0 for mode in (EGALITARIAN, EQUITABLE) for verdict in ("yes", "no")}
    for seed in range(2000):
        mode = (EGALITARIAN, EQUITABLE)[seed % 2]
        n, m, tau = rng.randint(0, 6), rng.randint(1, 4), rng.randint(1, 4)
        profile = random_instance(seed, n, m, tau, 0, 0, 0, mode, rng.choice((0.0, 0.3))).profile
        kvec = tuple(rng.randint(0, 3) for _ in range(tau))
        xvec = tuple(rng.randint(-1, 4) for _ in range(tau))
        yvec = tuple(rng.randint(-2 if mode == EGALITARIAN else 0, 0) for _ in range(n))
        pe = PeInstance(mode, n, m, tau, kvec, xvec, yvec, profile)
        leaf = rr_pe_qcse_zero_y(pe) if mode == EQUITABLE else pe
        expected = _greedy_leaf_check(leaf)
        assert counting_bound(pe) == counting_bound(leaf) == expected, f"seed {seed}"
        # the search decides such a root in one node, and no target is open to prune
        result = solve_branch(pe)
        assert result.verdict == ("yes" if expected else "no"), f"seed {seed}"
        assert result.stats["nodes_expanded"] == 1 and result.stats["bound_prunes"] == 0
        assert result.witness is None or verify(pe, result.witness).feasible
        seen[mode, result.verdict] += 1
    assert min(seen.values()) > 100, seen


def test_search_matches_reference_search():
    yes = deep = deep_unbounded = pruned = 0
    for seed in range(1000):
        pe = _random_pe(seed)
        result = solve_branch(pe)
        witness, stats = _reference_branch(pe)
        assert result.verdict == ("yes" if witness is not None else "no"), f"seed {seed}"
        assert (result.witness and list(result.witness.committees)) == witness, f"seed {seed}"
        assert result.stats == stats, f"seed {seed}"
        # the bound only ever removes nodes, never a verdict or a witness
        unbounded_witness, unbounded = _reference_branch(pe, bound=False)
        assert unbounded_witness == witness, f"seed {seed}"
        assert stats["nodes_expanded"] <= unbounded["nodes_expanded"], f"seed {seed}"
        yes += witness is not None
        deep += stats["max_depth"] >= 2
        deep_unbounded += unbounded["max_depth"] >= 2
        pruned += stats["nodes_expanded"] < unbounded["nodes_expanded"]
    # the bound cuts some deep searches short, so both depths are floored
    assert yes > 200 and deep_unbounded > 150 and deep > 100 and pruned > 150


def test_search_counters_at_benchmark_size():
    # searches of benchmark size; their counters feed the benchmark's counters digest
    inst = random_instance(24, 14, 4, 9, 2, 4, 3, EQUITABLE)
    result = solve_branch(inst)
    assert result.verdict == "no"
    assert result.stats == {
        "nodes_expanded": 597, "fingerprints_tried": 596, "max_depth": 6, "max_children": 84,
        "bound_prunes": 409,
    }
    inst = random_instance(13, 14, 4, 8, 2, 5, 4, EGALITARIAN)
    result = solve_branch(inst)
    assert result.witness.committees == (
        (2, 3), (2, 3), (1, 3), (1, 3), (3, 4), (2, 3), (1, 2), (2, 4),
    )
    assert result.stats == {
        "nodes_expanded": 1040, "fingerprints_tried": 1039, "max_depth": 7, "max_children": 16,
        "bound_prunes": 226,
    }


def test_counting_bound_refutes_i20_at_the_root():
    # equitable, 20 agents with target 3 over 12 levels of budget 2 and
    # threshold 5: the least reachable scores already sum to 65 > 60
    inst = random_instance(3, 20, 4, 12, 2, 5, 3, EQUITABLE)
    assert not counting_bound(lift(inst))
    result = solve_branch(inst)
    assert result.verdict == "no"
    assert result.stats["nodes_expanded"] == 1 and result.stats["bound_prunes"] == 1


@settings(max_examples=300, deadline=None)
@given(instances(max_n=8, max_tau=4))
def test_root_alone_never_contradicts_the_oracle(inst):
    # auto runs branching's root on every instance before any search, so a
    # root verdict must be the oracle's: in particular never no on a yes
    try:
        result = solve_branch(inst, max_nodes=1)
    except UndecidedError:
        return
    assert result.verdict == brute_solve(inst).verdict
    assert result.stats["nodes_expanded"] == 1
    if result.witness is not None:
        assert verify(inst, result.witness).feasible


@pytest.mark.parametrize("mode", [EGALITARIAN, EQUITABLE])
def test_wide_level_is_decided_without_enumeration(mode):
    # one level of 40 distinct nominees is past the enumeration guard, but
    # the bound only sums supports and the search only picks nominees
    row = tuple(range(1, 41))
    with pytest.raises(EnumerationLimitError):
        valid_committees(row_support(row), 10, 5)
    ten_open = PeInstance(mode, 40, 40, 1, (10,), (5,), (1,) * 10 + (0,) * 30, (row,))
    assert counting_bound(ten_open)
    result = solve_branch(ten_open)
    assert result.verdict == "yes" and result.stats["nodes_expanded"] == 11
    assert verify(ten_open, result.witness).feasible
    all_open = PeInstance(mode, 40, 40, 1, (10,), (5,), (1,) * 40, (row,))
    assert not counting_bound(all_open)
    assert solve_branch(all_open).verdict == "no"
