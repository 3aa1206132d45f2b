"""Type-grouped integer program: model shape, search, export, lifting."""

import hashlib
import random

import pytest

from ecse.ip import IpModel, UndecidedError, build_ip, export_lp, lift_ip_witness, solve_ip, solve_ip_naive
from ecse.model import EGALITARIAN, EQUITABLE, Instance, rename_candidates, verify
from ecse.oracle import brute_solve
from ecse.generators import random_instance

from conftest import make_instance


def test_build_trip_model(trip_egalitarian):
    model = build_ip(trip_egalitarian)
    assert model.num_types == 2
    assert model.type_levels == ((1,), (2,))
    assert model.committees == (((1, 5),), ((2, 3),))
    assert model.num_variables == 2
    # agent 2 nominates into the unique valid committee of both types
    assert model.agent_vars[1] == ((0, 0), (1, 0))


def test_identical_levels_group():
    inst = make_instance([(1, 2), (1, 2)], mode=EGALITARIAN, k=1, x=1, y=1)
    model = build_ip(inst)
    assert model.num_types == 1
    assert model.type_levels == ((1, 2),)


def test_infeasible_type_without_committees():
    inst = make_instance([(1, 2)], mode=EGALITARIAN, k=1, x=3, y=0)
    model = build_ip(inst)
    assert model.committees == ((),)
    assert solve_ip_naive(model) is None


def test_solve_trip_assignment(trip_egalitarian):
    model = build_ip(trip_egalitarian)
    assignment = solve_ip_naive(model)
    assert assignment == {(0, 0): 1, (1, 0): 1}
    witness = lift_ip_witness(model, assignment)
    assert witness.committees == ((1, 5), (2, 3))
    assert verify(trip_egalitarian, witness).feasible


def test_empty_agent_constraint_infeasible():
    # the lone agent nominates nothing but must score
    inst = make_instance([(0,)], mode=EGALITARIAN, k=1, x=0, y=1, m=2)
    assert solve_ip_naive(build_ip(inst)) is None


def test_lift_distributes_in_level_order():
    inst = make_instance([(1, 2), (1, 2)], mode=EGALITARIAN, k=1, x=1, y=1)
    model = build_ip(inst)
    committees = model.committees[0]
    assignment = {(0, 0): 1, (0, 1): 1}
    witness = lift_ip_witness(model, assignment)
    assert witness.committees == (committees[0], committees[1])


def test_lift_refuses_an_assignment_that_misses_a_level():
    inst = make_instance([(1, 2), (1, 2)], mode=EGALITARIAN, k=1, x=1, y=1)
    model = build_ip(inst)
    for assignment in ({(0, 0): 1}, {(0, 0): 2, (0, 1): 1}):
        with pytest.raises(ValueError) as err:
            lift_ip_witness(model, assignment)
        assert str(err.value) == "assignment does not cover the type's levels"


def test_lift_all_weight_on_empty_committee():
    inst = make_instance([(1, 2), (2, 1)], mode=EGALITARIAN, k=1, x=0, y=0)
    model = build_ip(inst)
    empty_vars = {
        (ti, model.committees[ti].index(())): len(model.type_levels[ti])
        for ti in range(model.num_types)
    }
    witness = lift_ip_witness(model, empty_vars)
    assert witness.committees == ((), ())
    assert verify(inst, witness).feasible


def test_type_sums_hold_in_assignments():
    for seed in range(120):
        inst = random_instance(
            seed, n=1 + seed % 4, m=1 + seed % 4, tau=1 + seed % 4,
            k=seed % 3, x=seed % 3, y=seed % 3,
            mode=EGALITARIAN if seed % 2 else EQUITABLE, empty_prob=0.25,
        )
        model = build_ip(inst)
        assignment = solve_ip_naive(model)
        if assignment is None:
            continue
        for ti in range(model.num_types):
            total = sum(assignment.get((ti, ci), 0) for ci in range(len(model.committees[ti])))
            assert total == len(model.type_levels[ti])


def test_solve_ip_trip(trip_egalitarian, trip_equitable_x3, trip_equitable_x4):
    result = solve_ip(trip_egalitarian)
    assert result.verdict == "yes"
    assert result.witness.committees == ((1, 5), (2, 3))
    assert solve_ip(trip_equitable_x3).verdict == "yes"
    assert solve_ip(trip_equitable_x4).verdict == "no"


def test_budget_raises_undecided():
    inst = random_instance(7, n=4, m=4, tau=4, k=2, x=1, y=1, mode=EGALITARIAN)
    with pytest.raises(UndecidedError):
        solve_ip(inst, max_nodes=1)


@pytest.mark.parametrize("args, nodes", [
    ((7, 12, 5, 10, 2, 2, 3, EGALITARIAN), 130),  # I12
    ((0, 13, 8, 30, 3, 1, 1, EGALITARIAN), 1_790),  # I13
    ((2, 16, 8, 14, 3, 3, 4, EGALITARIAN), 6_585),  # an L-ktau rung
])
def test_ip_node_counts_are_pinned(args, nodes):
    # the smallest budget that decides: any change to the pruning moves it
    inst = random_instance(*args)
    assert verify(inst, solve_ip(inst, max_nodes=nodes).witness).feasible
    with pytest.raises(UndecidedError):
        solve_ip(inst, max_nodes=nodes - 1)


def _reference_ip_search(model):
    """Recursive value search in the same variable and value order as
    ``solve_ip_naive``; returns (assignment or None, nodes visited)."""
    order = [(ti, ci) for ti, cs in enumerate(model.committees) for ci in range(len(cs))]
    if any(not cs and levels for cs, levels in zip(model.committees, model.type_levels)):
        return None, 0
    assignment = {}
    nodes = 0

    def agent_ok(a0):
        total = sum(assignment.get(key, 0) for key in model.agent_vars[a0])
        if model.equitable and total > model.y:
            return False
        # each type with an open variable of the agent may still add its remaining levels
        open_types = {ti for ti, ci in model.agent_vars[a0] if (ti, ci) not in assignment}
        return total + sum(remaining(ti) for ti in open_types) >= model.y

    def remaining(ti):
        used = sum(v for (tj, _), v in assignment.items() if tj == ti)
        return len(model.type_levels[ti]) - used

    def rec(idx):
        nonlocal nodes
        nodes += 1
        if not all(agent_ok(a0) for a0 in range(len(model.agent_vars))):
            return False
        if idx == len(order):
            return all(remaining(ti) == 0 for ti in range(model.num_types))
        ti, ci = order[idx]
        left = remaining(ti)
        for value in [left] if ci == len(model.committees[ti]) - 1 else range(left + 1):
            assignment[(ti, ci)] = value
            if rec(idx + 1):
                return True
            del assignment[(ti, ci)]
        return False

    return (dict(assignment) if rec(0) else None), nodes


def test_search_matches_recursive_reference():
    rng = random.Random(11)
    yes = 0
    for seed in range(300):
        inst = random_instance(
            seed, n=rng.randint(0, 5), m=rng.randint(1, 4), tau=rng.randint(1, 6),
            k=rng.randint(0, 3), x=rng.randint(0, 3), y=rng.randint(0, 3),
            mode=rng.choice([EGALITARIAN, EQUITABLE]), empty_prob=rng.choice([0.0, 0.2, 0.5]),
        )
        model = build_ip(rename_candidates(inst)[0])
        expected, nodes = _reference_ip_search(model)
        assert solve_ip_naive(model) == expected, f"seed {seed}"
        yes += expected is not None
        if nodes:
            # the budget counts the same nodes: exactly enough decides, one fewer refuses
            assert solve_ip_naive(model, max_nodes=nodes) == expected, f"seed {seed}"
            with pytest.raises(UndecidedError):
                solve_ip_naive(model, max_nodes=nodes - 1)
    assert 60 < yes < 240


def test_agrees_with_oracle():
    for seed in range(200):
        inst = random_instance(
            seed, n=1 + seed % 5, m=1 + (seed * 3) % 5, tau=1 + seed % 4,
            k=seed % 4, x=seed % 4, y=seed % 3,
            mode=EGALITARIAN if seed % 2 else EQUITABLE, empty_prob=(seed % 3) / 10,
        )
        result = solve_ip(inst)
        assert result.verdict == brute_solve(inst).verdict, f"seed {seed}"
        if result.witness is not None:
            assert verify(inst, result.witness).feasible


def test_export_lp_trip(trip_egalitarian):
    text = export_lp(build_ip(trip_egalitarian))
    assert text.startswith("Minimize\n obj: 0\nSubject To\n")
    assert " a2: x_t1_c1 + x_t2_c1 >= 1\n" in text
    assert " t1: x_t1_c1 = 1\n" in text
    assert " 0 <= x_t1_c1 <= 1\n" in text
    assert text.rstrip().endswith("End")


def test_export_lp_equitable_rows(trip_equitable_x3):
    text = export_lp(build_ip(trip_equitable_x3))
    assert " a1: " in text
    line = next(l for l in text.splitlines() if l.startswith(" a1:"))
    assert line.endswith("= 1") and not line.endswith(">= 1")


def test_export_lp_empty_model():
    model = IpModel(False, 0, (), (), ())
    text = export_lp(model)
    assert text == "Minimize\n obj: 0\nSubject To\nBounds\nGeneral\nEnd\n"


def test_export_deterministic(trip_egalitarian):
    model = build_ip(trip_egalitarian)
    assert export_lp(model) == export_lp(model)


def test_export_lp_keeps_unsatisfiable_rows():
    # the second level elects candidate 1 for everyone; the first admits no
    # committee, so its type row must survive as an empty, unsatisfiable sum
    inst = Instance(EGALITARIAN, 3, 3, 2, 1, 3, 1, ((1, 2, 3), (1, 1, 1)))
    assert solve_ip(inst).verdict == "no"
    text = export_lp(build_ip(rename_candidates(inst)[0]))
    assert " t1: 0 x_t2_c1 = 1\n" in text
    # with no variable at all, every row sits on a placeholder fixed to 0
    text = export_lp(build_ip(make_instance([(1,)], k=0, x=1, y=1)))
    assert " a1: 0 x_none >= 1\n t1: 0 x_none = 1\nBounds\n 0 <= x_none <= 0\n" in text


# (random_instance arguments, sha256 of the LP export of its renamed form);
# most draws repeat level rows, so their types count several levels, and the
# last two hold types that admit no committee
EXPORT_LP_DIGESTS = [
    ((1, 2, 2, 6, 1, 1, 2, EGALITARIAN, 0.0),
     "fb11f5c81bcb571674409fe5f7114b512cabaf0404765a7a8f46b71d251430a2"),
    ((2, 2, 2, 6, 1, 1, 3, EQUITABLE, 0.0),
     "fa11a6d2f6bbe5f9011c76b268f02b7d2f32ce2f8c9f6f6d8faad0fc0f9c3402"),
    ((3, 3, 2, 5, 2, 1, 2, EGALITARIAN, 0.3),
     "77df5a4abac729d69e87edf7e38a1c6872847dab9cdce9a024f2769e7cde997b"),
    ((4, 3, 3, 5, 1, 1, 2, EQUITABLE, 0.3),
     "e758482a3acb483d44bff0dc636acbc701c39d54652d024ac0c9018fc8a61906"),
    ((5, 4, 3, 4, 2, 2, 1, EGALITARIAN, 0.0),
     "e314ceac73f2be149d7b4e234ac6ceec399a8c1c0ebf607bd5b6aa9792f60f02"),
    ((6, 4, 3, 4, 2, 2, 1, EQUITABLE, 0.2),
     "86f8c9dc41ecf69ecb82e648d0affc01cb0227e7e1ea64a39ed07e4fd471d7a1"),
    ((7, 5, 4, 8, 2, 2, 3, EGALITARIAN, 0.1),
     "9c70d609ca7d00fe69c60aad7d09c6bc3406aa924b042db2d33063c81cc42f3b"),
    ((8, 5, 4, 8, 2, 2, 3, EQUITABLE, 0.1),
     "8056686e8fee33311c8eab4ec56dc1b7824d3c2aabd6870718ebf79fc671d408"),
    ((9, 1, 3, 4, 1, 0, 2, EQUITABLE, 0.5),
     "daa77042e34627c0d8ee88c8c16b7f2219ea5a4d6d37cdf0a7b97350259a5eb0"),
    ((10, 6, 2, 10, 1, 3, 4, EGALITARIAN, 0.0),
     "c5466e3801a81c98a4aa9988f9522d7e2c728464acf2e7a03de1ff0482f08f96"),
    ((11, 3, 1, 3, 0, 0, 0, EQUITABLE, 0.0),
     "932a3204f3749cc3829011bf21967b6411715f1f4f232730d0231865ba5eeca0"),
    ((12, 0, 2, 2, 1, 0, 0, EGALITARIAN, 0.0),
     "21171d84a3c8a673e9fdc5a41efbefdbb19a07e19e795791f2c33bde9c9f5236"),
    ((13, 3, 2, 4, 1, 3, 1, EGALITARIAN, 0.0),
     "54b43a9bb8dd5dd3b96d6c8b227def0fadcdc9c152386da4037a2b1239c44c0a"),
    ((14, 3, 2, 4, 1, 3, 1, EQUITABLE, 0.0),
     "b23df189fa7e9eb66fb5bb580cd0a010490d9229bbff34bc8e2623c178405f9d"),
]


@pytest.mark.parametrize("args, digest", EXPORT_LP_DIGESTS)
def test_export_lp_documents_are_pinned(args, digest):
    text = export_lp(build_ip(rename_candidates(random_instance(*args))[0]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_pinned_exports_repeat_rows_and_hold_empty_types():
    models = [build_ip(rename_candidates(random_instance(*args))[0]) for args, _ in EXPORT_LP_DIGESTS]
    assert sum(any(len(levels) > 1 for levels in model.type_levels) for model in models) == 11
    assert sum(not all(model.committees) for model in models) == 2


def _milp_feasible(text: str) -> bool:
    """Feasibility of an exported program, read back into scipy's MILP."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    rows, bounds, general, section = [], {}, set(), None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line
        elif section == "Subject To":
            lhs, sense, rhs = line.split(":")[1].rsplit(None, 2)
            terms = [term.split() for term in lhs.split(" + ")]
            rows.append(({t[-1]: float(t[0]) if len(t) == 2 else 1.0 for t in terms}, sense, int(rhs)))
        elif section == "Bounds":
            low, _, name, _, high = line.split()
            bounds[name] = (int(low), int(high))
        elif section == "General":
            general.add(line.strip())
    names = sorted(bounds)
    if not names:
        return not rows
    column = {name: j for j, name in enumerate(names)}
    matrix = np.zeros((len(rows), len(names)))
    for i, (coef, _, _) in enumerate(rows):
        for name, value in coef.items():
            matrix[i, column[name]] = value
    low = [rhs for _, _, rhs in rows]
    high = [rhs if sense == "=" else np.inf for _, sense, rhs in rows]
    result = optimize.milp(
        np.zeros(len(names)),
        constraints=optimize.LinearConstraint(matrix, low, high),
        bounds=optimize.Bounds([bounds[n][0] for n in names], [bounds[n][1] for n in names]),
        integrality=[name in general for name in names],
    )
    assert result.status in (0, 2), result.message
    return result.status == 0


def test_exported_program_agrees_with_solve_ip():
    pytest.importorskip("scipy")
    rng = random.Random(2024)
    for seed in range(600):
        inst = random_instance(
            seed, n=rng.randint(0, 4), m=rng.randint(1, 4), tau=rng.randint(1, 4),
            k=rng.randint(0, 3), x=rng.randint(0, 3), y=rng.randint(0, 3),
            mode=rng.choice([EGALITARIAN, EQUITABLE]), empty_prob=0.2,
        )
        text = export_lp(build_ip(rename_candidates(inst)[0]))
        assert _milp_feasible(text) == (solve_ip(inst).verdict == "yes"), f"seed {seed}"
