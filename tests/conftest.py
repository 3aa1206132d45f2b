"""Shared fixtures: the six-agent weekend-trip election and small helpers.

Candidate ids in the worked example are alphabetical:
1=dancing, 2=hiking, 3=museum, 4=restaurant, 5=sightseeing, 6=theater.
"""

import itertools
import random

import pytest
from hypothesis import strategies as st

from ecse.model import (
    EGALITARIAN,
    EQUITABLE,
    CommitteeSequence,
    Instance,
    verify,
)

TRIP_ROWS = (
    (1, 5, 1, 5, 3, 4),
    (4, 3, 2, 6, 2, 3),
)


def make_instance(rows, mode=EGALITARIAN, k=1, x=0, y=1, m=None):
    rows = tuple(tuple(r) for r in rows)
    n = len(rows[0]) if rows else 0
    if m is None:
        m = max((c for row in rows for c in row), default=0)
    return Instance(mode, n, m, len(rows), k, x, y, rows)


@st.composite
def instances(draw, max_n=5, max_m=4, max_tau=3):
    """Hypothesis strategy: a plain instance of either mode; nominee 0 is an
    empty nomination."""
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


@pytest.fixture
def trip_egalitarian():
    """Two activities per day, strict majority per day, everyone at least once."""
    return make_instance(TRIP_ROWS, mode=EGALITARIAN, k=2, x=4, y=1, m=6)


@pytest.fixture
def trip_equitable_x3():
    """Weak majority per day, everyone exactly once."""
    return make_instance(TRIP_ROWS, mode=EQUITABLE, k=2, x=3, y=1, m=6)


@pytest.fixture
def trip_equitable_x4():
    return make_instance(TRIP_ROWS, mode=EQUITABLE, k=2, x=4, y=1, m=6)


def forcing_cascade(agents, chains, groups, k, seed):
    """Equitable two-level target-one instance of ``chains`` three-agent
    chains ``(p, 0) (p, q) (r, q)``, each of which triggers the forcing rule
    twice (``p``, then ``r`` once ``q`` is erased), followed by block-random
    filler: ``groups`` blocks of two left and two right candidates."""
    rng = random.Random(seed)
    row1, row2 = [], []
    for i in range(chains):
        p, r, q = 3 * i + 1, 3 * i + 2, 3 * i + 3
        row1.extend([p, p, r])
        row2.extend([0, q, q])
    base = 3 * chains
    while len(row1) < agents:
        g = (len(row1) - 3 * chains) % groups
        row1.append(base + 4 * g + rng.randint(1, 2))
        row2.append(base + 4 * g + rng.randint(3, 4))
    return Instance(EQUITABLE, agents, base + 4 * groups, 2, k, 0, 1,
                    (tuple(row1), tuple(row2)))


def random_cnf(rng, num_vars, num_clauses, max_clause=3, monotone=False):
    """Random CNF without repeated variables inside a clause."""
    from ecse.generators import CnfFormula

    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, min(max_clause, num_vars))
        chosen = rng.sample(range(1, num_vars + 1), size)
        clauses.append(
            tuple(v if (monotone or rng.random() < 0.5) else -v for v in chosen)
        )
    return CnfFormula(num_vars, tuple(clauses))


def random_exact3_cnf(rng, num_vars, num_clauses, monotone=False):
    from ecse.generators import CnfFormula

    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(
            tuple(v if (monotone or rng.random() < 0.5) else -v for v in chosen)
        )
    return CnfFormula(num_vars, tuple(clauses))


def random_occurrence_cnf(rng, num_vars, monotone):
    """Formula matching the occurrence-restricted generator input.

    Monotone: every variable exactly three times, clauses of three distinct
    variables (num_vars clauses).  Otherwise: every variable exactly twice
    negated and twice unnegated (4*num_vars/3 clauses).
    """
    from ecse.generators import CnfFormula

    if monotone:
        pool = [v for v in range(1, num_vars + 1) for _ in range(3)]
    else:
        assert (4 * num_vars) % 3 == 0
        pool = [s * v for v in range(1, num_vars + 1) for s in (1, 1, -1, -1)]
    while True:
        rng.shuffle(pool)
        clauses = [tuple(pool[i : i + 3]) for i in range(0, len(pool), 3)]
        if all(len({abs(l) for l in c}) == 3 for c in clauses):
            return CnfFormula(num_vars, tuple(clauses))


def random_bipartite(rng, max_side=4, edge_prob=0.5):
    from ecse.generators import BipartiteGraph

    n1 = rng.randint(1, max_side)
    n2 = rng.randint(1, max_side)
    edges = tuple(
        (u, v)
        for u in range(1, n1 + 1)
        for v in range(1, n2 + 1)
        if rng.random() < edge_prob
    )
    return BipartiteGraph(n1, n2, edges)


def all_feasible_sequences(inst):
    """Every feasible committee sequence, by raw product enumeration.

    Independent of the package's solvers and committee filters: committees
    range over all size-at-most-k subsets of the full candidate set.  Only
    usable for tiny instances.
    """
    candidates = range(1, inst.m + 1)
    per_level = [
        c
        for size in range(0, min(inst.k, inst.m) + 1)
        for c in itertools.combinations(candidates, size)
    ]
    out = []
    for combo in itertools.product(per_level, repeat=inst.tau):
        seq = CommitteeSequence(tuple(combo))
        if verify(inst, seq).feasible:
            out.append(seq)
    return out
