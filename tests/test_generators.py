"""Generators: structure checks, witness maps, reduction soundness at desk scale.

The heavyweight >=200-inputs-per-generator sweeps live in the acceptance
suite; here each reduction gets a quicker seeded sweep plus its documented
edge cases.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecse.generators import (
    BipartiteGraph,
    CnfFormula,
    gen_3part,
    gen_from_cbvc,
    gen_gcse_3sat,
    gen_gcse_sat,
    gen_nmx,
    gen_qcse_monotone_x13sat,
    gen_qcse_x13sat,
    or_compose,
    parse_3part,
    parse_cbvc,
    parse_dimacs,
    random_instance,
    sat_assignment_to_sequence,
    sat_sequence_to_assignment,
    threesat_assignment_to_sequence,
    threesat_sequence_to_assignment,
)
from ecse.model import EGALITARIAN, EQUITABLE, Instance, verify
from ecse.oracle import OracleLimits, brute_solve
from ecse.formats import ParseError, serialize_instance
from ecse.sources import (
    cbvc_has_cover,
    sat_satisfiable,
    three_partition_exists,
    x13sat_satisfiable,
)

from conftest import random_bipartite, random_cnf, random_occurrence_cnf

BIG_LIMITS = OracleLimits(max_n=24, max_m=8, max_tau=6)


def test_parse_dimacs():
    cnf = parse_dimacs("c comment\np cnf 2 2\n1 -2 0\n-1 2 0\n")
    assert cnf.num_vars == 2
    assert cnf.clauses == ((1, -2), (-1, 2))
    multi = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert multi.clauses == ((1, 2, 3),)
    with pytest.raises(ValueError, match="exceeds"):
        parse_dimacs("p cnf 2 1\n3 0\n")
    with pytest.raises(ValueError, match="header"):
        parse_dimacs("p sat 2 1\n1 0\n")
    with pytest.raises(ValueError, match="promises"):
        parse_dimacs("p cnf 2 2\n1 0\n")


def test_parse_cbvc():
    graph, k = parse_cbvc("c star\np cbvc 1 2 1\n1 1\n1 2\n")
    assert (graph.n1, graph.n2, k) == (1, 2, 1)
    assert graph.edges == ((1, 1), (1, 2))
    with pytest.raises(ValueError):
        parse_cbvc("1 1\n")


def test_sources_take_hash_comments():
    cnf = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert parse_dimacs("# a formula\np cnf 2 1  # two variables\n1 -2 0 # one clause\n") == cnf
    star = parse_cbvc("p cbvc 1 2 1\n1 1\n1 2\n")
    assert parse_cbvc("p cbvc 1 2 1 # a star\n1 1\n1 2#the second edge\n") == star
    assert parse_3part("1 2 3 # the first triple\n\n+2 2\t2\n") == [1, 2, 3, 2, 2, 2]


@pytest.mark.parametrize(
    "parse, text, message, line",
    [
        # a bad literal ahead of a second header: the reader stops at the literal
        (parse_dimacs, "p cnf 2 1\n1 x 0\np cnf 2 1\n", "expected an integer, got 'x'", 2),
        (parse_cbvc, "p cbvc 1 1 0\n1 x\np cbvc 1 1 0\n", "expected an integer, got 'x'", 2),
        (parse_dimacs, "p cnf 2 1\np cnf 2 1\n1 x 0\n", "expected one `p cnf` header with 2 integers", 2),
        (parse_dimacs, "c first\n1 0\np cnf 1 1\n", "expected the `p cnf` header first", 2),
        (parse_cbvc, "1 1\np cbvc 1 1 0\n", "expected the `p cbvc` header first", 1),
        (parse_cbvc, "p cbvc 1 1 0\n 1  1  1 \n", "expected an edge `u v` with u in 1..1 and v in 1..1", 2),
        (parse_dimacs, "", "missing `p cnf` header", 1),
        (parse_cbvc, "c only a comment\n\n", "missing `p cbvc` header", 1),
        (parse_dimacs, "p cnf 2 1\n0\n", "empty clause", 2),
        # faults found at the end of the text name the last clause line
        (parse_dimacs, "p cnf 2 1\n1 -2\n", "unterminated clause", 2),
        (parse_dimacs, "p cnf 2 2\n1\n2 0\nc tail\n\n", "header promises 2 clauses, found 1", 3),
        (parse_dimacs, "c no clauses\np cnf 2 1\n", "header promises 1 clauses, found 0", 2),
        (parse_dimacs, "p cnf 1_0 1\n1 0\n", "expected an integer, got '1_0'", 1),
        (parse_cbvc, "p cbvc 1 2 1\n1 1\n1 \u0661\n", "expected an integer, got '\u0661'", 3),
        (parse_cbvc, "p cbvc 1 2 1\n1 3\n", "expected an edge `u v` with u in 1..1 and v in 1..2", 2),
        (parse_3part, "1 2 3 # a triple\n\n2 \uff11 3\n", "expected an integer, got '\uff11'", 3),
    ],
)
def test_source_format_errors_come_in_line_order(parse, text, message, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def _layout(draw, lines: list[list[str]]) -> str:
    """Each line's tokens after drawn whitespace, with ``c`` comment lines
    and blank lines drawn around every line."""
    fillers = st.lists(st.sampled_from(["c a comment", "c", "", " \t"]), max_size=2)
    spaces = st.sampled_from([" ", "  ", "\t"])
    out = []
    for tokens in lines:
        out += [*draw(fillers), "".join(draw(spaces) + tok for tok in tokens)]
    return "\n".join(out + draw(fillers)) + draw(st.sampled_from(["", "\n"]))


def _signed(draw, value: int) -> str:
    return draw(st.sampled_from([str(value), f"+{value}"])) if value > 0 else str(value)


@st.composite
def dimacs_documents(draw):
    """A random CnfFormula and a DIMACS text of it, its clauses broken over
    lines at drawn places."""
    num_vars = draw(st.integers(1, 6))
    literals = st.integers(-num_vars, num_vars).filter(bool)
    clauses = draw(st.lists(st.lists(literals, min_size=1, max_size=4).map(tuple), max_size=6))
    lines = [[f"p cnf {num_vars} {len(clauses)}"], []]
    for lit in (lit for clause in clauses for lit in (*clause, 0)):
        lines[-1].append(_signed(draw, lit))
        if draw(st.booleans()):
            lines.append([])
    return CnfFormula(num_vars, tuple(clauses)), _layout(draw, lines)


@st.composite
def cbvc_documents(draw):
    """A random BipartiteGraph with its k, and a CBVC text of them."""
    n1, n2, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    edges = tuple(draw(st.lists(st.tuples(st.integers(1, n1), st.integers(1, n2)), max_size=8)))
    lines = [[f"p cbvc {n1} {n2} {k}"], *([_signed(draw, u), _signed(draw, v)] for u, v in edges)]
    return (BipartiteGraph(n1, n2, edges), k), _layout(draw, lines)


@settings(max_examples=200, deadline=None)
@given(dimacs_documents())
def test_dimacs_text_parses_back_to_its_formula(case):
    cnf, text = case
    assert parse_dimacs(text) == cnf


@settings(max_examples=200, deadline=None)
@given(cbvc_documents())
def test_cbvc_text_parses_back_to_its_graph(case):
    parsed, text = case
    assert parse_cbvc(text) == parsed


def test_cbvc_star_and_edgeless():
    star = BipartiteGraph(1, 2, ((1, 1), (1, 2)))
    inst = gen_from_cbvc(star, 1)
    assert (inst.tau, inst.x, inst.y) == (2, 0, 1)
    assert brute_solve(inst).verdict == "yes"  # cover by the hub

    edgeless = gen_from_cbvc(BipartiteGraph(2, 2, ()), 0)
    assert edgeless.n == 0
    assert brute_solve(edgeless).verdict == "yes"


def test_cbvc_soundness_sample():
    for seed in range(120):
        rng = random.Random(seed)
        graph = random_bipartite(rng)
        k = rng.randint(0, 3)
        inst = gen_from_cbvc(graph, k)
        assert brute_solve(inst, BIG_LIMITS).verdict == (
            "yes" if cbvc_has_cover(graph, k, k) else "no"
        ), f"seed {seed}"


def test_3sat_structure_and_examples():
    tautologyish = CnfFormula(1, ((1,),))
    inst = gen_gcse_3sat(tautologyish)
    assert (inst.n, inst.m, inst.k, inst.tau) == (7, 2, 1, 3)
    assert brute_solve(inst).verdict == "yes"

    unsat = CnfFormula(1, ((1,), (-1,)))
    assert brute_solve(gen_gcse_3sat(unsat)).verdict == "no"

    with pytest.raises(ValueError, match="twice"):
        gen_gcse_3sat(CnfFormula(2, ((1, -1, 2),)))
    with pytest.raises(ValueError, match="three"):
        gen_gcse_3sat(CnfFormula(4, ((1, 2, 3, 4),)))


def test_3sat_solutions_repeat_one_committee():
    for seed in range(25):
        rng = random.Random(seed)
        cnf = random_cnf(rng, 2, rng.randint(1, 3))
        inst = gen_gcse_3sat(cnf)
        result = brute_solve(inst, BIG_LIMITS)
        assert (result.verdict == "yes") == sat_satisfiable(cnf)
        if result.witness is not None:
            first = result.witness.committees[0]
            assert all(c == first for c in result.witness)
            for i in range(1, cnf.num_vars + 1):
                assert len(set(first) & {2 * i - 1, 2 * i}) == 1


def test_3sat_witness_transport():
    cnf = CnfFormula(2, ((1, -2), (-1, 2)))
    inst = gen_gcse_3sat(cnf)
    for assignment in [(True, True), (False, False)]:
        seq = threesat_assignment_to_sequence(cnf, assignment)
        assert verify(inst, seq).feasible
    witness = brute_solve(inst, BIG_LIMITS).witness
    back = threesat_sequence_to_assignment(cnf, witness)
    assert all(
        any((lit > 0) == back[abs(lit) - 1] for lit in clause) for clause in cnf.clauses
    )


def test_x13sat_examples():
    triple = CnfFormula(3, ((1, 2, 3),))
    inst = gen_qcse_x13sat(triple)
    assert inst.mode == EQUITABLE
    assert brute_solve(inst, BIG_LIMITS).verdict == "yes"

    # one variable three times: 0 or 3 true positions, never exactly one
    degenerate = CnfFormula(1, ((1,), (1,), (1,)))
    seq_inst = gen_qcse_x13sat(degenerate)
    assert brute_solve(seq_inst, BIG_LIMITS).verdict == "yes"  # (x1) thrice: one each
    true_thrice = CnfFormula(2, ((1, 2), (1,)))
    assert (brute_solve(gen_qcse_x13sat(true_thrice), BIG_LIMITS).verdict == "yes") == (
        x13sat_satisfiable(true_thrice)
    )


def test_sat_two_candidates():
    cnf = CnfFormula(2, ((1, -2), (-1, 2)))
    inst = gen_gcse_sat(cnf)
    assert (inst.m, inst.k, inst.tau, inst.n) == (2, 1, 2, 2)
    assert inst.profile == ((1, 2), (2, 1))
    # a clause without the level's variable nominates nobody there
    assert gen_gcse_sat(CnfFormula(3, ((1, -3), (-2,), (2, 3)))).profile == (
        (1, 0, 0),
        (0, 2, 1),
        (2, 0, 1),
    )
    result = brute_solve(inst)
    assert result.verdict == "yes"
    seq = sat_assignment_to_sequence(cnf, (True, True))
    assert verify(inst, seq).feasible
    assert brute_solve(gen_gcse_sat(CnfFormula(1, ((1,), (-1,))))).verdict == "no"
    with pytest.raises(ValueError, match="twice"):
        gen_gcse_sat(CnfFormula(1, ((1, -1),)))


def test_sat_soundness_and_transport():
    for seed in range(80):
        rng = random.Random(seed)
        cnf = random_cnf(rng, rng.randint(1, 4), rng.randint(1, 6))
        inst = gen_gcse_sat(cnf)
        expected = sat_satisfiable(cnf)
        result = brute_solve(inst, BIG_LIMITS)
        assert (result.verdict == "yes") == expected, f"seed {seed}"
        if result.witness is not None:
            back = sat_sequence_to_assignment(cnf, result.witness)
            assert all(
                any((lit > 0) == back[abs(lit) - 1] for lit in clause)
                for clause in cnf.clauses
            )


def test_monotone_x13sat():
    inst = gen_qcse_monotone_x13sat(CnfFormula(3, ((1, 2, 3),)))
    assert inst.m == 1 and inst.mode == EQUITABLE
    assert inst.tau == 6 and inst.n == 1 + 6
    assert brute_solve(inst, BIG_LIMITS).verdict == "yes"

    no = CnfFormula(2, ((1, 2), (1,), (2,)))
    assert brute_solve(gen_qcse_monotone_x13sat(no), BIG_LIMITS).verdict == "no"

    with pytest.raises(ValueError, match="negated"):
        gen_qcse_monotone_x13sat(CnfFormula(2, ((1, -2),)))


def test_monotone_x13sat_soundness():
    for seed in range(60):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 3)
        cnf = random_cnf(rng, num_vars, rng.randint(1, 3), monotone=True)
        inst = gen_qcse_monotone_x13sat(cnf)
        assert (brute_solve(inst, BIG_LIMITS).verdict == "yes") == x13sat_satisfiable(
            cnf
        ), f"seed {seed}"


def test_nmx_validation_and_example():
    good = CnfFormula(3, ((1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3)))
    inst = gen_nmx(good, EGALITARIAN)
    assert (inst.tau, inst.x, inst.y, inst.k, inst.m) == (3, 2, 1, 2, 3)
    assert inst.n - inst.x == 2
    assert inst.profile == ((1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1))
    # two disjoint copies: a clause without the level's variable nominates the filler 3
    shifted = tuple(tuple(lit + 3 if lit > 0 else lit - 3 for lit in c) for c in good.clauses)
    assert gen_nmx(CnfFormula(6, good.clauses + shifted), EGALITARIAN).profile == (
        (1, 1, 2, 2, 3, 3, 3, 3),
        (1, 2, 1, 2, 3, 3, 3, 3),
        (1, 2, 2, 1, 3, 3, 3, 3),
        (3, 3, 3, 3, 1, 1, 2, 2),
        (3, 3, 3, 3, 1, 2, 1, 2),
        (3, 3, 3, 3, 1, 2, 2, 1),
    )
    assert (brute_solve(inst).verdict == "yes") == sat_satisfiable(good)

    bad = CnfFormula(3, ((1, 2, 3), (1, -2, -3), (1, 2, -3), (-1, -2, 3)))
    with pytest.raises(ValueError, match="variable 1"):
        gen_nmx(bad, EGALITARIAN)


def test_nmx_equitable():
    cnf = CnfFormula(3, ((1, 2, 3), (1, 2, 3), (1, 2, 3)))
    inst = gen_nmx(cnf, EQUITABLE)
    assert (inst.m, inst.x, inst.n - inst.x) == (2, 0, 3)
    assert inst.profile == ((1, 1, 1),) * 3
    # a clause without the level's variable nominates the filler 2
    split = CnfFormula(6, ((1, 2, 3),) * 3 + ((4, 5, 6),) * 3)
    rows = ((1, 1, 1, 2, 2, 2),) * 3 + ((2, 2, 2, 1, 1, 1),) * 3
    assert gen_nmx(split, EQUITABLE).profile == rows
    assert (brute_solve(inst).verdict == "yes") == x13sat_satisfiable(cnf)
    with pytest.raises(ValueError, match="negated"):
        gen_nmx(CnfFormula(3, ((1, -2, 3), (1, 2, 3), (1, 2, 3))), EQUITABLE)


def test_nmx_soundness_sample():
    for seed in range(40):
        rng = random.Random(seed)
        cnf = random_occurrence_cnf(rng, 3, monotone=False)
        inst = gen_nmx(cnf, EGALITARIAN)
        assert (brute_solve(inst).verdict == "yes") == sat_satisfiable(cnf), f"seed {seed}"
    for seed in range(40):
        rng = random.Random(1000 + seed)
        num_vars = rng.choice([3, 4])
        cnf = random_occurrence_cnf(rng, num_vars, monotone=True)
        inst = gen_nmx(cnf, EQUITABLE)
        assert (brute_solve(inst).verdict == "yes") == x13sat_satisfiable(
            cnf
        ), f"seed {seed}"


def one_level_unit(nominations):
    """Tiny composition building block: m=2, k=1, x=0, y=1."""
    from ecse.model import Instance

    rows = (tuple(nominations),)
    return Instance(EGALITARIAN, len(nominations), 2, 1, 1, 0, 1, rows)


def test_or_compose_examples():
    yes_unit = one_level_unit([1])
    no_unit = one_level_unit([1, 2])  # two agents, one seat, different nominees
    assert brute_solve(yes_unit).verdict == "yes"
    assert brute_solve(no_unit).verdict == "no"

    composed = or_compose([yes_unit, no_unit])
    assert composed.tau == 2
    assert brute_solve(composed).verdict == "yes"
    assert brute_solve(or_compose([no_unit, no_unit])).verdict == "no"
    four = or_compose([yes_unit] * 4)
    assert four.tau == 1 + 2
    assert brute_solve(four, BIG_LIMITS).verdict == "yes"


def test_or_compose_validation(trip_equitable_x3):
    with pytest.raises(ValueError, match="2\\^q"):
        or_compose([one_level_unit([1])] * 3)
    with pytest.raises(ValueError, match="egalitarian"):
        or_compose([trip_equitable_x3, trip_equitable_x3])
    with pytest.raises(ValueError, match="share"):
        or_compose([one_level_unit([1]), gen_gcse_3sat(CnfFormula(1, ((1,),)))])


def test_or_compose_soundness():
    for seed in range(80):
        rng = random.Random(seed)
        q = rng.choice([1, 2])
        units = []
        for _ in range(2 ** q):
            agents = rng.randint(1, 2)
            units.append(one_level_unit([rng.randint(1, 2) for _ in range(agents)]))
        composed = or_compose(units)
        expected = any(brute_solve(u).verdict == "yes" for u in units)
        assert (brute_solve(composed, BIG_LIMITS).verdict == "yes") == expected, f"seed {seed}"


def test_3part_examples():
    inst = gen_3part([1, 2, 3, 1, 2, 3], EGALITARIAN)
    assert (inst.n, inst.m, inst.tau, inst.k, inst.x, inst.y) == (12, 6, 2, 3, 6, 1)
    limits = OracleLimits(max_n=14, max_m=8, max_tau=6)
    result = brute_solve(inst, limits)
    assert result.verdict == "yes"
    # solutions partition the candidates into triples of support sum T
    committees = result.witness.committees
    assert sorted(c for committee in committees for c in committee) == list(range(1, 7))
    assert all(len(c) == 3 for c in committees)

    assert brute_solve(gen_3part([1, 1, 1], EGALITARIAN)).verdict == "yes"
    assert brute_solve(gen_3part([1, 1, 4, 1, 1, 4], EQUITABLE), limits).verdict == "yes"
    assert brute_solve(gen_3part([1, 1, 1, 1, 1, 7], EQUITABLE), limits).verdict == "no"
    with pytest.raises(ValueError):
        gen_3part([1, 1], EGALITARIAN)
    with pytest.raises(ValueError):
        gen_3part([1, 1, 2, 1, 1, 3], EGALITARIAN)


def test_3part_soundness_sample():
    limits = OracleLimits(max_n=14, max_m=8, max_tau=6)
    seen_yes = seen_no = 0
    for seed in range(60):
        rng = random.Random(seed)
        groups = rng.choice([1, 2])
        while True:
            values = [rng.randint(1, 4) for _ in range(3 * groups)]
            if sum(values) % groups == 0 and sum(values) <= 13:
                break
        expected = three_partition_exists(values)
        seen_yes += expected
        seen_no += not expected
        for mode in (EGALITARIAN, EQUITABLE):
            inst = gen_3part(values, mode)
            assert (brute_solve(inst, limits).verdict == "yes") == expected, (seed, mode)
    assert seen_yes and seen_no


def test_random_instance_determinism():
    a = random_instance(42, n=4, m=3, tau=3, k=1, x=1, y=1, mode=EQUITABLE, empty_prob=0.3)
    b = random_instance(42, n=4, m=3, tau=3, k=1, x=1, y=1, mode=EQUITABLE, empty_prob=0.3)
    assert serialize_instance(a) == serialize_instance(b)
    full = random_instance(1, n=3, m=3, tau=2, k=1, x=0, y=0, mode=EGALITARIAN, empty_prob=0.0)
    assert all(c != 0 for row in full.profile for c in row)
    empty = random_instance(1, n=3, m=3, tau=2, k=1, x=0, y=0, mode=EGALITARIAN, empty_prob=1.0)
    assert all(c == 0 for row in empty.profile for c in row)


def random_instance_reference(seed, n, m, tau, k, x, y, mode, empty_prob=0.0):
    """``random_instance`` as a plain ``randint`` loop: the stream contract
    the optimized draw must reproduce."""
    if not 0.0 <= empty_prob <= 1.0:
        raise ValueError("empty_prob must be in [0, 1]")
    rng = random.Random(seed)
    rows = []
    for _ in range(tau):
        row = []
        for _ in range(n):
            if m <= 0 or rng.random() < empty_prob:
                row.append(0)
            else:
                row.append(rng.randint(1, m))
        rows.append(tuple(row))
    return Instance(mode, n, m, tau, k, x, y, tuple(rows))


# candidate counts around powers of two, where the rejection loop redraws most
# often, and past 32 bits, where one draw takes two Mersenne Twister words
EDGE_M = [0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 255, 256, 1500, 2**32, 2**40 + 3]


@given(
    seed=st.integers(0, 2**64),
    n=st.integers(0, 30),
    tau=st.integers(1, 3),
    m=st.one_of(st.sampled_from(EDGE_M), st.integers(0, 2**45)),
    empty_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    mode=st.sampled_from([EGALITARIAN, EQUITABLE]),
)
@settings(max_examples=300)
def test_random_instance_matches_the_randint_loop(seed, n, tau, m, empty_prob, mode):
    args = (seed, n, m, tau, 1, 0, 1, mode, empty_prob)
    assert random_instance(*args) == random_instance_reference(*args)


@given(seed=st.integers(0, 2**32), n=st.integers(0, 5), m=st.integers(-(2**40), -1))
@settings(max_examples=50)
def test_random_instance_negative_m_raises_like_the_randint_loop(seed, n, m):
    args = (seed, n, m, 2, 1, 0, 1, EGALITARIAN, 0.5)
    with pytest.raises(ValueError) as fast:
        random_instance(*args)
    with pytest.raises(ValueError) as reference:
        random_instance_reference(*args)
    assert str(fast.value) == str(reference.value)


# (random_instance arguments, sha256 of the serialized draw); every benchmark
# corpus and ladder is defined by this stream and these bytes
RANDOM_DRAW_DIGESTS = [
    ((1, 6, 4, 3, 2, 1, 1, EGALITARIAN, 0.0),
     "19f772e5039ed5dc6de971c42bc4bc799f90725936b9c170607f5b54352aa35d"),
    ((2, 6, 4, 3, 2, 1, 1, EQUITABLE, 0.0),
     "4c3927aa703b7322bd6196c3372bc8865db4a7498bd07f6ad3b3c310c8e5afc3"),
    ((3, 7, 5, 4, 2, 2, 2, EGALITARIAN, 0.3),
     "f53aeb2208a290777773b779b2fd5c8e66b90528ea93c488f6fa858b06c5c2aa"),
    ((4, 7, 5, 4, 2, 2, 2, EQUITABLE, 0.3),
     "b419b6f06235917ebbd33ff0b6482ee11281d2ce113479045f35f1c84559baae"),
    ((5, 5, 0, 2, 0, 0, 0, EGALITARIAN, 0.0),
     "0ad010b610319359f26b4681301cd9b7520e444f38fe4155cc32eb2d9a8d2f2a"),
    ((6, 5, 0, 2, 0, 0, 0, EQUITABLE, 0.3),
     "969f09436d7aeb998be99fc24cd34315d273151e79b717d516e09c595f3c4ecc"),
    ((8, 40, 1500, 3, 5, 3, 1, EGALITARIAN, 0.3),
     "4935d48a882d2cab48225341f5e230e09d2408e372443038a2d9558181957a34"),
    ((9, 1, 3, 1, 1, 0, 1, EQUITABLE, 0.0),
     "e1ae5b1379b3a69971e68110040b9ea5b43fce299a016534d4ac14d0f7a2dc61"),
    ((10, 0, 3, 2, 1, 0, 1, EGALITARIAN, 0.0),
     "a2bc1d28c40411dc0935235b0bc6d946eb5516d8859e2ad358e8ac87ca68e3ef"),
    ((7, 50_000, 40, 2, 40, 0, 1, EQUITABLE, 0.1),
     "39e3d689987b6f2d8e64e9b16e10bbd228da36328b2ed19beee09e640010c75e"),
]


@pytest.mark.parametrize("args, digest", RANDOM_DRAW_DIGESTS)
def test_random_instance_documents_are_pinned(args, digest):
    doc = serialize_instance(random_instance(*args))
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == digest


# (SAT-family generator, random_cnf seed, variables, clauses, monotone, sha256
# of the serialized instance); a changed gadget row changes these bytes
SAT_FAMILY_DIGESTS = [
    (gen_gcse_3sat, 1, 4, 6, False, "08f1966bca8c65b8c9a291a86dd1956ba2c11f6009ba0432e04b241033d7a4a2"),
    (gen_gcse_3sat, 2, 8, 20, False, "3ca0355e240524981b5b4613c29f1cff1bdf49cfcddb45dc2eb7e35a0a8f36c6"),
    (gen_gcse_3sat, 3, 0, 0, False, "8962fa72fab09fa430ce99801f55c6b024268a4fe62c29ed0340393ba1f9d6b5"),
    (gen_qcse_x13sat, 4, 5, 9, False, "0e2a9613a72ac6d615b5f1c6baf3ad037095b3f468c73483784a8684315d5ff9"),
    (gen_qcse_x13sat, 5, 7, 14, False, "c92615c5130fbe0490fd1f0204e659ccfe60a81cce19e6e383ae43ae49780ee1"),
    (gen_qcse_monotone_x13sat, 6, 4, 5, True,
     "cff926aaee1cacf06287252a962e5525a4b83225902234c7801e18fff9c078bc"),
    (gen_qcse_monotone_x13sat, 7, 9, 18, True,
     "f280237a7bd16b20b64043496f0c85366f53fb94fec929166ff6803204b9586c"),
    (gen_gcse_sat, 8, 3, 7, False, "d846ba60c520f940755c9cbc61f154ada98a215306cd362eb3520af774d67d0a"),
    (gen_gcse_sat, 9, 10, 30, False, "a822561fba07e86ec5273bed3a76dadab86b8132636edd7e2ee84b2f6b0662ee"),
]


@pytest.mark.parametrize(
    "generator, seed, num_vars, num_clauses, monotone, digest", SAT_FAMILY_DIGESTS,
    ids=[f"{gen.__name__}-{seed}" for gen, seed, *_ in SAT_FAMILY_DIGESTS],
)
def test_sat_family_documents_are_pinned(generator, seed, num_vars, num_clauses, monotone, digest):
    cnf = random_cnf(random.Random(seed), num_vars, num_clauses, monotone=monotone)
    doc = serialize_instance(generator(cnf))
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == digest


THREE_BY_ONE = CnfFormula(3, ((1, 2, 3),))


@pytest.mark.parametrize("build, message", [
    (lambda: CnfFormula(2, ((),)), "empty clause"),
    (lambda: CnfFormula(2, ((3,),)), "literal 3 out of range for 2 variables"),
    (lambda: CnfFormula(2, ((1, 0),)), "literal 0 out of range for 2 variables"),
    (lambda: BipartiteGraph(1, 2, ((1, 3),)), "edge (1, 3) out of range"),
    (lambda: gen_gcse_sat(CnfFormula(0, ())), "need at least one variable"),
    (lambda: gen_qcse_monotone_x13sat(CnfFormula(0, ())), "need at least one variable"),
    (lambda: gen_nmx(CnfFormula(2, ((1, 2),)), EGALITARIAN), "clauses must have exactly three literals"),
    (lambda: gen_nmx(THREE_BY_ONE, EGALITARIAN), "variable 1 must occur twice negated and twice unnegated"),
    (lambda: gen_nmx(THREE_BY_ONE, EQUITABLE), "variable 1 must occur exactly three times"),
    (lambda: gen_nmx(THREE_BY_ONE, "bogus"), "unknown mode 'bogus'"),
    (lambda: gen_3part([2, 0, 1], EGALITARIAN), "values must be positive"),
])
def test_generator_input_errors_name_the_fault(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("check, expected", [
    (lambda: sat_satisfiable(CnfFormula(21, ())), "exhaustive SAT check capped at 20 variables"),
    (lambda: x13sat_satisfiable(CnfFormula(21, ())), "exhaustive check capped at 20 variables"),
    (lambda: cbvc_has_cover(BipartiteGraph(17, 1, ()), 1, 1),
     "exhaustive cover check capped at 16 left vertices"),
    # no triples at all, a count that is no multiple of three, a sum that
    # does not split evenly over the triples
    (lambda: three_partition_exists([]), False),
    (lambda: three_partition_exists([1, 2]), False),
    (lambda: three_partition_exists([1, 1, 1, 1, 1, 2]), False),
])
def test_source_checkers_refuse_or_answer_early(check, expected):
    if expected is False:
        assert check() is False
        return
    with pytest.raises(ValueError) as err:
        check()
    assert str(err.value) == expected
