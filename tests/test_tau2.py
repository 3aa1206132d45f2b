"""Two-level equitable pipeline: rules, graph reduction, component sweep."""

import random
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ecse.model import EGALITARIAN, EQUITABLE, CommitteeSequence, Instance, SolveResult, verify
from ecse.oracle import brute_solve
from ecse.tau2 import (
    _FIRST_BLOCK,
    _components,
    CbivcsComponent,
    CbivcsInstance,
    X2Instance,
    apply_x2_rules,
    build_cbivcs,
    rr_x2_force_single,
    solve_cbivcs,
    solve_qcse_tau2,
    x2_from_instance,
)
from ecse.generators import random_instance

from conftest import forcing_cascade, make_instance


def x2(row1, row2, k1=2, k2=2, x1=0, x2_=0):
    return X2Instance(tuple(row1), tuple(row2), k1, k2, x1, x2_)


def test_rr_no_nomination():
    assert rr_x2_no_nomination(x2((1, 0), (2, 0))) is None
    inst = x2((1, 2), (2, 1))
    assert rr_x2_no_nomination(inst) is inst
    empty = x2((), ())
    assert rr_x2_no_nomination(empty) is empty


def test_rr_force_single_example():
    # agents: (c1, -), (c1, c2), (c3, c2); forcing c1 erases c2 everywhere in
    # level two and deletes both supporters of c1
    inst = x2((1, 1, 3), (0, 2, 2), k1=2, k2=2, x1=1, x2_=0)
    forced = rr_x2_force_single(inst)
    assert forced.n == 1
    assert forced.row1 == (3,) and forced.row2 == (0,)
    assert forced.k1 == 1 and forced.x1 == 0
    assert forced.forced1 == (1,)


def test_rr_force_single_identity():
    inst = x2((1, 2), (2, 1))
    assert rr_x2_force_single(inst) is inst


def test_force_budget_exhaustion():
    inst = x2((1, 2), (0, 0), k1=1)
    assert apply_x2_rules(inst) is None  # second forcing under-runs the budget


def test_apply_rules_reaches_fixed_point():
    # forcing c1 leaves agent (c3, -), which forces c3 next
    inst = x2((1, 1, 3), (0, 2, 2), k1=2, k2=2, x1=1)
    out = apply_x2_rules(inst)
    assert out is not None
    assert out.n == 0
    assert out.forced1 == (1, 3)


def edge_total(graph):
    return sum(comp.edge_count for comp in graph.components)


def graph_sides(graph):
    """Both sides of the graph as the sorted union of its components' sides;
    a candidate in two components would show up twice."""
    return (
        tuple(sorted(c for comp in graph.components for c in comp.left)),
        tuple(sorted(c for comp in graph.components for c in comp.right)),
    )


def test_build_cbivcs_shapes():
    graph = build_cbivcs(x2((1, 1), (2, 3)))
    assert graph_sides(graph) == ((1,), (2, 3))
    assert edge_total(graph) == 2
    assert len(graph.components) == 1
    comp = graph.components[0]
    assert (comp.left, comp.right, comp.edge_count) == ((1,), (2, 3), 2)

    # identical agents: parallel edges are kept, degree counts agents
    twin = build_cbivcs(x2((1, 1), (2, 2)))
    assert edge_total(twin) == 2
    assert twin.components[0].edge_count == 2

    empty = build_cbivcs(x2((), ()))
    assert empty.components == ()

    with pytest.raises(ValueError):
        build_cbivcs(x2((1, 0), (2, 2)))


def test_solve_cbivcs_single_edge():
    g = CbivcsInstance(1, 1, 1, 0, (CbivcsComponent((1,), (2,), 1),))
    assert solve_cbivcs(g) == {(1, 1)}


def test_solve_cbivcs_two_components():
    # component A: single edge u1-v1; component B: path v2 - u2 - v3
    g = CbivcsInstance(
        2, 1, 2, 1,
        (
            CbivcsComponent((1,), (1,), 1),
            CbivcsComponent((2,), (2, 3), 2),
        ),
    )
    cover = solve_cbivcs(g)
    assert cover == {(1, 2), (2, 1)}  # left side of B, right side of A


def test_solve_cbivcs_unreachable_targets():
    g = CbivcsInstance(1, 1, 2, 0, (CbivcsComponent((1,), (2,), 1),))
    assert solve_cbivcs(g) is None


def test_trip_equitable(trip_equitable_x3, trip_equitable_x4):
    result = solve_qcse_tau2(trip_equitable_x3)
    assert result.verdict == "yes"
    report = verify(trip_equitable_x3, result.witness)
    assert report.feasible and set(report.agent_scores) == {1}
    assert solve_qcse_tau2(trip_equitable_x4).verdict == "no"


def test_mode_and_level_preconditions(trip_egalitarian):
    with pytest.raises(ValueError):
        solve_qcse_tau2(trip_egalitarian)
    three = make_instance([(1,), (1,), (1,)], mode=EQUITABLE, k=1, x=0, y=1)
    with pytest.raises(ValueError):
        solve_qcse_tau2(three)
    # a target other than one is a trivial case only on an equitable two-level instance
    with pytest.raises(ValueError):
        solve_qcse_tau2(make_instance([(1, 2), (2, 1)], mode=EGALITARIAN, k=1, x=0, y=0))


def test_trivial_targets():
    inst = make_instance([(1, 2), (2, 1)], mode=EQUITABLE, k=2, x=0, y=0)
    assert solve_qcse_tau2(inst).verdict == "yes"
    inst = make_instance([(1, 2), (2, 1)], mode=EQUITABLE, k=2, x=2, y=2)
    result = solve_qcse_tau2(inst)
    assert result.verdict == "yes"
    assert verify(inst, result.witness).feasible
    inst = make_instance([(1, 2), (2, 1)], mode=EQUITABLE, k=1, x=0, y=2)
    assert solve_qcse_tau2(inst).verdict == "no"


def full_side_invariant(inst):
    """Returned covers take one full side per component and touch every
    agent-edge exactly once (so each surviving agent scores exactly one)."""
    x2inst = apply_x2_rules(x2_from_instance(inst))
    if x2inst is None:
        return
    graph = build_cbivcs(x2inst)
    assert edge_total(graph) == x2inst.n  # agents and edges correspond one-to-one
    cover = solve_cbivcs(graph)
    if cover is None:
        return
    for comp in graph.components:
        left = {(1, c) for c in comp.left}
        right = {(2, c) for c in comp.right}
        assert left <= cover or right <= cover
    for c1, c2 in zip(x2inst.row1, x2inst.row2):
        assert ((1, c1) in cover) + ((2, c2) in cover) == 1


def test_agrees_with_oracle():
    for seed in range(300):
        inst = random_instance(
            seed, n=1 + seed % 6, m=1 + (seed * 3) % 5, tau=2,
            k=seed % 4, x=seed % 4, y=1,
            mode=EQUITABLE, empty_prob=(seed % 4) / 10,
        )
        result = solve_qcse_tau2(inst)
        assert result.verdict == brute_solve(inst).verdict, f"seed {seed}"
        if result.witness is not None:
            assert verify(inst, result.witness).feasible
        full_side_invariant(inst)


def rr_x2_no_nomination(inst):
    """The one-step no-nomination rule: an agent without any nomination can
    never reach target one, so None (resolved no) if one exists, else the
    input."""
    return None if (0, 0) in zip(inst.row1, inst.row2) else inst


def fixed_point_reference(inst):
    """The rules as their definition states them: one-step rules in
    alternation until neither changes the instance."""
    while True:
        checked = rr_x2_no_nomination(inst)
        if checked is None:
            return None
        nxt = rr_x2_force_single(checked)
        if nxt is None or nxt is checked:
            return nxt
        inst = nxt


@st.composite
def x2_with_chains(draw):
    """Random rows with empty nominations, plus planted chains
    ``(p, 0) (p, q) (r, q)`` at random positions: forcing ``p`` erases ``q``
    and so forces ``r``."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 10))
    nomination = st.integers(0, m)
    pairs = draw(st.lists(st.tuples(nomination, nomination), min_size=n, max_size=n))
    candidate = st.integers(1, m)
    for _ in range(draw(st.integers(0, 3))):
        p, q, r = draw(candidate), draw(candidate), draw(candidate)
        for pair in ((p, 0), (p, q), (r, q)):
            pairs.insert(draw(st.integers(0, len(pairs))), pair)
    budgets = st.integers(0, 4)
    thresholds = st.integers(0, 6)
    return X2Instance(
        tuple(a for a, _ in pairs), tuple(b for _, b in pairs),
        draw(budgets), draw(budgets), draw(thresholds), draw(thresholds),
    )


@settings(max_examples=400, deadline=None)
@given(x2_with_chains())
def test_worklist_rules_match_the_fixed_point(inst):
    fast, reference = apply_x2_rules(inst), fixed_point_reference(inst)
    if reference is None:
        assert fast is None
    else:
        assert fast == reference  # every field, forced order included


@settings(max_examples=400, deadline=None)
@given(x2_with_chains())
def test_rules_keep_exactly_the_agents_outside_vertex_zeros_component(inst):
    # why the pipeline needs no graph over the rules' survivors
    rest = apply_x2_rules(inst)
    if rest is None:
        return
    zero = set(_components(inst.row1, inst.row2)[1] or ())
    outside = [a0 for a0 in range(inst.n) if inst.row1[a0] not in zero]
    assert rest.n == len(outside)
    assert rest.row1 == tuple(inst.row1[a0] for a0 in outside)
    assert rest.row2 == tuple(inst.row2[a0] for a0 in outside)


def naive_components(edges):
    """Union-find once per edge, parallel edges included:
    sorted (left, right, edge count) triples."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[find((1, u))] = find((2, v))
    sides, counts = {}, Counter()
    for u, v in edges:
        root = find((1, u))
        sides.setdefault(root, set()).update({(1, u), (2, v)})
        counts[root] += 1
    return sorted(
        (
            tuple(sorted(c for side, c in members if side == 1)),
            tuple(sorted(c for side, c in members if side == 2)),
            counts[root],
        )
        for root, members in sides.items()
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda m: st.lists(st.tuples(st.integers(1, m), st.integers(1, m)), max_size=14)
))
def test_components_match_per_edge_union_find(pairs):
    # few candidates per side, so most draws repeat a pair (parallel edges)
    inst = x2([a for a, _ in pairs], [b for _, b in pairs])
    graph = build_cbivcs(inst)
    edges = list(zip(inst.row1, inst.row2))
    assert [
        (comp.left, comp.right, comp.edge_count) for comp in graph.components
    ] == naive_components(edges)
    assert edge_total(graph) == len(edges) == len(pairs)


def graph_from_rows(inst):
    """``build_cbivcs`` as first written: the zero check and both sides read
    off the full rows, components from per-edge union-find."""
    if 0 in inst.row1 or 0 in inst.row2:
        raise ValueError("agents must nominate at both levels; apply the rules first")
    edges = list(zip(inst.row1, inst.row2))
    return tuple(sorted(set(inst.row1))), tuple(sorted(set(inst.row2))), naive_components(edges)


@settings(max_examples=300, deadline=None)
@given(x2_with_chains())
def test_graph_sides_from_pairs_match_the_rows(inst):
    # the drawn instance may still hold zeros; the rules' output holds none
    for case in (inst, apply_x2_rules(inst)):
        if case is None:
            continue
        try:
            expected = graph_from_rows(case)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                build_cbivcs(case)
            assert str(err.value) == str(exc)
            continue
        graph = build_cbivcs(case)
        components = [(comp.left, comp.right, comp.edge_count) for comp in graph.components]
        assert (*graph_sides(graph), components) == expected


@pytest.mark.parametrize("row1, row2, others, zero", [
    # connected: the early exit returns vertex 0's component alone
    ((1, 0, 0), (0, 0, 2), (), [-2, 0, 1]),
    ((0, 1, 0), (2, 0, 0), (), [-2, 0, 1]),
    ((0,), (0,), (), [0]),
    # zero-free components next to vertex 0's
    ((1, 0, 3, 0), (0, 2, 3, 0), (CbivcsComponent((3,), (3,), 1),), [-2, 0, 1]),
    ((0, 1), (0, 2), (CbivcsComponent((1,), (2,), 1),), [0]),
])
def test_missing_nominations_are_the_one_vertex_zero(row1, row2, others, zero):
    components, members = _components(row1, row2)
    assert components == others
    assert sorted(members) == zero


def lift(inst, m=None):
    """The equitable two-level ``Instance`` of an ``X2Instance`` whose
    budgets and thresholds agree across levels: its first level's.  ``m``
    is the largest candidate nominated unless given."""
    m = max((*inst.row1, *inst.row2), default=0) if m is None else m
    return Instance(EQUITABLE, inst.n, m, 2, inst.k1, inst.x1, 1, (inst.row1, inst.row2))


def pipeline_reference(inst):
    """``solve_qcse_tau2`` composed from the reference parts: the one-step
    rules to their fixed point over every agent, then per-edge union-find
    over the survivors' rows, then the sweep."""
    stats = {"forced": 0, "components": 0, "surviving_agents": 0}
    rest = fixed_point_reference(x2_from_instance(inst))
    if rest is None:
        return SolveResult.no(stats)
    stats["forced"] = len(rest.forced1) + len(rest.forced2)
    stats["surviving_agents"] = rest.n
    components = graph_from_rows(rest)[2]
    stats["components"] = len(components)
    graph = CbivcsInstance(
        rest.k1, rest.k2, rest.x1, rest.x2, tuple(CbivcsComponent(*comp) for comp in components)
    )
    cover = solve_cbivcs(graph)
    if cover is None:
        return SolveResult.no(stats)
    committees = [set(rest.forced1), set(rest.forced2)]
    for side, c in cover:
        committees[side - 1].add(c)
    return SolveResult.yes(CommitteeSequence.of(committees), stats)


@settings(max_examples=500, deadline=None)
@given(x2_with_chains().map(lift))
# zeros in two candidate groups, one at each level, next to a zero-free one
@example(lift(x2((1, 1, 2, 0, 4, 5), (0, 3, 3, 6, 6, 7), k1=3, k2=3, x1=1, x2_=1)))
# zeros on both levels in one group; an agent with no nomination at all
@example(lift(x2((1, 0, 1, 2), (0, 2, 3, 3), k1=3, k2=3)))
@example(lift(x2((1, 0, 2), (2, 0, 1), k1=2, k2=2)))
# a cascade that forces three level-one candidates on a budget of two
@example(lift(x2((1, 1, 2, 2, 3), (0, 4, 4, 5, 5), k1=2, k2=2)))
@example(lift(x2((), ()), 1))
def test_pipeline_matches_the_reference_composition(inst):
    assert solve_qcse_tau2(inst) == pipeline_reference(inst)


CONNECTED, LATE_BRIDGE, LATE_EDGE, SEVERAL = "connected", "late bridge", "late edge", "several"


@st.composite
def multi_block_rows(draw, shape):
    """Two-level rows of 1,000-5,000 agents, longer than the graph's first
    block of pairs.  ``connected``: a path through every candidate opens the
    rows, so the graph is connected within the first block.  ``late bridge``:
    two such halves on disjoint candidates, joined only by the last agent.
    ``late edge``: connected from the first block, but the last agent
    nominates two candidates nobody else does, a second component.
    ``several``: candidates split into groups, each agent nominating inside
    one group."""
    n = draw(st.integers(1000, 5000))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def half(agents, m1, m2, first1, first2):
        # a path v1 - u1 - v2 - u2 - ... covers both sides, then random pairs
        path = [(min(i, m1 - 1), min(i + d, m2 - 1)) for i in range(max(m1, m2)) for d in (0, 1)]
        pairs = path + [(rng.randrange(m1), rng.randrange(m2)) for _ in range(agents - len(path))]
        return [(first1 + a, first2 + b) for a, b in pairs]

    m1, m2 = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if shape == CONNECTED:
        pairs = half(n, m1, m2, 1, 1)
    elif shape == LATE_BRIDGE:
        pairs = half(n // 2, m1, m2, 1, 1) + half(n - n // 2 - 1, m1, m2, m1 + 1, m2 + 1)
        pairs.append((rng.randint(1, m1), rng.randint(m2 + 1, 2 * m2)))
    elif shape == LATE_EDGE:
        pairs = half(n - 1, m1, m2, 1, 1) + [(m1 + 1, m2 + 1)]
    else:
        groups = draw(st.integers(2, 12))
        pairs = []
        for _ in range(n):
            g = rng.randrange(groups)
            pairs.append((1 + g + groups * rng.randrange(m1), 1 + g + groups * rng.randrange(m2)))
    return x2([a for a, _ in pairs], [b for _, b in pairs])


@pytest.mark.parametrize("shape", [CONNECTED, LATE_BRIDGE, LATE_EDGE, SEVERAL])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_multi_block_graph_matches_per_edge_union_find(shape, data):
    inst = data.draw(multi_block_rows(shape))
    graph = build_cbivcs(inst)
    components = [(comp.left, comp.right, comp.edge_count) for comp in graph.components]
    assert (*graph_sides(graph), components) == graph_from_rows(inst)
    assert edge_total(graph) == inst.n
    if shape in (CONNECTED, LATE_BRIDGE):
        assert len(components) == 1
    elif shape == LATE_EDGE:
        assert len(components) == 2
        assert components[-1] == ((max(inst.row1),), (max(inst.row2),), 1)
    else:
        assert len(components) > 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_zero_nomination_after_the_first_block_is_refused(data):
    # connected within the first block, so only a later block's zero check
    # can catch the agent that lacks a nomination
    inst = data.draw(multi_block_rows(CONNECTED))
    assume(inst.n > _FIRST_BLOCK)
    assert len(build_cbivcs(inst).components) == 1
    a0 = data.draw(st.integers(_FIRST_BLOCK, inst.n - 1))
    rows = [list(inst.row1), list(inst.row2)]
    rows[data.draw(st.integers(0, 1))][a0] = 0
    with pytest.raises(ValueError) as err:
        build_cbivcs(x2(*rows))
    assert str(err.value) == "agents must nominate at both levels; apply the rules first"


@pytest.mark.parametrize("shape", [CONNECTED, SEVERAL])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pipeline_with_a_zero_after_the_first_block(shape, data):
    # a connected graph gains vertex 0 only after its first block, so the
    # early exit must wait for it; in ``several`` the zero's group is the
    # only one the rules may touch
    inst = data.draw(multi_block_rows(shape))
    assume(inst.n > _FIRST_BLOCK)
    a0 = data.draw(st.integers(_FIRST_BLOCK, inst.n - 1))
    m = max((*inst.row1, *inst.row2))
    rows = [list(inst.row1), list(inst.row2)]
    rows[data.draw(st.integers(0, 1))][a0] = 0
    budget = data.draw(st.sampled_from((2, m)))
    case = lift(x2(*rows, k1=budget, x1=data.draw(st.integers(0, inst.n // 4))), m)
    assert solve_qcse_tau2(case) == pipeline_reference(case)


@pytest.mark.parametrize("shape", [CONNECTED, LATE_BRIDGE, LATE_EDGE, SEVERAL])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_components_read_the_instance_row_values_as_their_own(shape, data):
    # the sides a validated instance keeps are the ones the graph would
    # sort from its rows, with or without a missing nomination
    inst = data.draw(multi_block_rows(shape))
    rows = [list(inst.row1), list(inst.row2)]
    if data.draw(st.booleans()):
        a0 = data.draw(st.integers(0, inst.n - 1))
        rows[data.draw(st.integers(0, 1))][a0] = 0
    case = lift(x2(*rows))
    row1, row2 = case.profile
    assert _components(row1, row2, case.row_values) == _components(row1, row2)


def test_one_component_spanning_40_and_40_candidates():
    inst = random_instance(6, 5000, 40, 2, 40, 0, 1, EQUITABLE)
    assert inst.row_values == (tuple(range(1, 41)),) * 2
    row1, row2 = inst.profile
    whole = (CbivcsComponent(tuple(range(1, 41)), tuple(range(1, 41)), 5000),)
    assert _components(row1, row2, inst.row_values) == _components(row1, row2) == (whole, None)
    assert solve_qcse_tau2(inst).stats["components"] == 1


def all_j_sweep(g):
    """``solve_cbivcs`` as first written: every j from 0 to the type count is
    tried from every state, and states over budget are dropped."""
    if g.k1 < 0 or g.k2 < 0:
        return None
    total = sum(comp.edge_count for comp in g.components)
    type_members = {}
    for comp in g.components:
        type_members.setdefault((len(comp.left), len(comp.right), comp.edge_count), []).append(comp)
    stages = [{(0, 0, 0): None}]
    for (n1, n2, m), members in type_members.items():
        count = len(members)
        nxt = {}
        for state in sorted(stages[-1]):
            k1u, k2u, x1s = state
            for j in range(count + 1):
                cand = (k1u + j * n1, k2u + (count - j) * n2, x1s + j * m)
                if cand[0] > g.k1 or cand[1] > g.k2:
                    continue
                if cand not in nxt:
                    nxt[cand] = (state, j)
        if not nxt:
            return None
        stages.append(nxt)
    accepting = sorted(s for s in stages[-1] if s[2] >= g.x1 and total - s[2] >= g.x2)
    if not accepting:
        return None
    cover, state = set(), accepting[0]
    for stage, members in zip(reversed(stages), reversed(type_members.values())):
        prev, j = stage[state]
        for pos, comp in enumerate(members):
            if pos < j:
                cover.update((1, c) for c in comp.left)
            else:
                cover.update((2, c) for c in comp.right)
        state = prev
    return cover


@st.composite
def cbivcs_graphs(draw):
    """Up to four component types (sides of 1-3 candidates, 1-6 edges),
    interleaved, up to 12 components; budgets from -1 to 10, so a type's
    count often exceeds what a budget admits, and thresholds up to just
    past the edge total."""
    shape = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6))
    types = draw(st.lists(shape, min_size=1, max_size=4, unique=True))
    order = draw(st.lists(st.sampled_from(types), max_size=12))
    components, next1, next2 = [], 1, 1
    for n1, n2, edges in order:
        components.append(CbivcsComponent(
            tuple(range(next1, next1 + n1)), tuple(range(next2, next2 + n2)), edges
        ))
        next1, next2 = next1 + n1, next2 + n2
    total = sum(comp.edge_count for comp in components)
    budget, threshold = st.integers(-1, 10), st.integers(0, total + 2)
    return CbivcsInstance(
        draw(budget), draw(budget), draw(threshold), draw(threshold), tuple(components)
    )


@settings(max_examples=500, deadline=None)
@given(cbivcs_graphs())
def test_feasible_range_sweep_matches_the_all_j_loop(g):
    assert solve_cbivcs(g) == all_j_sweep(g)


@pytest.mark.parametrize("k1, k2", [(0, 6), (6, 0), (0, 0)])
def test_feasible_range_sweep_with_an_empty_budget(k1, k2):
    # five equal single-edge components: a zero budget forces every one to
    # the other side, and two zeros leave no cover at all
    comps = tuple(CbivcsComponent((c,), (c,), 1) for c in range(1, 6))
    g = CbivcsInstance(k1, k2, 0, 0, comps)
    cover = solve_cbivcs(g)
    assert cover == all_j_sweep(g)
    if k1 == k2 == 0:
        assert cover is None
    else:
        assert cover == {(1 if k1 else 2, c) for c in range(1, 6)}


def test_forcing_cascade_scales_to_1e5_agents():
    """Ten times the acceptance cascade, decided in under 2 s; forcing one
    candidate per full rescan of the agents is quadratic and needs about a
    minute at this size."""
    inst = forcing_cascade(100_000, chains=1000, groups=97, k=5000, seed=2)
    started = time.perf_counter()
    result = solve_qcse_tau2(inst)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    assert result.stats["forced"] == 2000
    assert result.verdict == "yes"
    assert verify(inst, result.witness).feasible


@pytest.mark.parametrize("call, message", [
    (lambda: X2Instance((1,), (1, 2), 1, 1, 0, 0), "rows must have one entry per agent"),
    (lambda: X2Instance((1, 2), (1, 2, 1), 1, 1, 0, 0), "rows must have one entry per agent"),
    (lambda: x2_from_instance(make_instance([(1, 2), (2, 1)], mode=EQUITABLE, k=1, x=0, y=2)),
     "expected target one"),
])
def test_two_level_input_errors_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
