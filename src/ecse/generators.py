"""Instance factories built from classic hard problems, plus random instances.

Each generator mirrors a reduction whose soundness the test suite checks
empirically: the brute-force verdict of the source problem must equal the
brute-force verdict of the generated election, over many small inputs.  The
generators are deterministic; variable-to-level and clause-to-agent order is
input order throughout.

Clauses that contain a variable twice (in particular tautological clauses)
are rejected by the SAT-based generators: an agent nominates at most one
candidate per level, so such clauses have no faithful image.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace

from .formats import ParseError, _content_lines, _int
from .model import EGALITARIAN, EQUITABLE, CommitteeSequence, Instance


@dataclass(frozen=True)
class CnfFormula:
    """CNF with ``num_vars`` variables; positive literal = unnegated."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError(f"variable count {self.num_vars} must be nonnegative")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph given by side sizes and (left, right) index pairs."""

    n1: int
    n2: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError(f"side sizes ({self.n1}, {self.n2}) must be nonnegative")
        for u, v in self.edges:
            if not (1 <= u <= self.n1 and 1 <= v <= self.n2):
                raise ValueError(f"edge ({u}, {v}) out of range")


def _p_lines(text: str, kind: str, arity: int):
    """Read a ``p <kind>`` document lazily: yield ``(line, integers)`` for
    the header, then for each body line but ``c`` comments.  A second header,
    a body line before the header or no header is a ParseError raised when
    the reader reaches it, so errors come in line order."""
    line, header = 1, False
    for line, body in _content_lines(text):
        tokens = body.split()
        if tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if header or len(tokens) != arity + 2 or tokens[1] != kind:
                raise ParseError(line, f"expected one `p {kind}` header with {arity} integers")
            header, tokens = True, tokens[2:]
            if any(_int(tok, line) < 0 for tok in tokens):
                raise ParseError(line, f"`p {kind}` header integers must be nonnegative")
        elif not header:
            raise ParseError(line, f"expected the `p {kind}` header first")
        yield line, [_int(tok, line) for tok in tokens]
    if not header:
        raise ParseError(line, f"missing `p {kind}` header")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF (``p cnf N M`` header, 0-terminated clauses possibly
    spanning lines); a fault found at the end names the last clause line."""
    lines = _p_lines(text, "cnf", 2)
    line, (num_vars, num_clauses) = next(lines)
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line, lits in lines:
        for lit in lits:
            if lit == 0:
                if not current:
                    raise ParseError(line, "empty clause")
                clauses.append(tuple(current))
                current = []
            elif abs(lit) > num_vars:
                raise ParseError(line, f"literal {lit} exceeds variable count {num_vars}")
            else:
                current.append(lit)
    if current:
        raise ParseError(line, "unterminated clause")
    if len(clauses) != num_clauses:
        raise ParseError(line, f"header promises {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def parse_cbvc(text: str) -> tuple[BipartiteGraph, int]:
    """Parse the bipartite-cover format: ``p cbvc |V1| |V2| k`` then one
    ``u v`` line per edge."""
    lines = _p_lines(text, "cbvc", 3)
    _, (n1, n2, k) = next(lines)
    edges: list[tuple[int, int]] = []
    for line, edge in lines:
        if len(edge) != 2 or not (1 <= edge[0] <= n1 and 1 <= edge[1] <= n2):
            raise ParseError(line, f"expected an edge `u v` with u in 1..{n1} and v in 1..{n2}")
        edges.append((edge[0], edge[1]))
    return BipartiteGraph(n1, n2, tuple(edges)), k


def parse_3part(text: str) -> list[int]:
    """Parse a 3-Partition multiset: whitespace-separated integers."""
    return [_int(tok, line) for line, body in _content_lines(text) for tok in body.split()]


# -- reductions ----------------------------------------------------------------


def gen_from_cbvc(graph: BipartiteGraph, k: int) -> Instance:
    """Bipartite vertex cover with equal per-side budgets as a two-level
    egalitarian election: one candidate per vertex, one agent per edge
    nominating its endpoints, x = 0 and y = 1."""
    rows = (
        tuple(u for u, _ in graph.edges),
        tuple(graph.n1 + v for _, v in graph.edges),
    )
    return Instance(EGALITARIAN, len(graph.edges), graph.n1 + graph.n2, 2, k, 0, 1, rows)


def _check_simple_clauses(cnf: CnfFormula) -> None:
    for clause in cnf.clauses:
        seen = set()
        for lit in clause:
            if abs(lit) in seen:
                raise ValueError(f"variable {abs(lit)} appears twice in clause {clause}")
            seen.add(abs(lit))


def _threesat_rows(cnf: CnfFormula) -> tuple[tuple[int, ...], ...]:
    """Profile rows of the three-level construction: six gadget agents per
    variable pin that exactly one of each candidate pair is elected, in the
    same way, at every level; clause agents nominate their literals by
    position."""
    columns = []
    for i in range(1, cnf.num_vars + 1):
        cp, cn = 2 * i - 1, 2 * i
        columns += [(cp, 0, cn), (cn, cp, 0), (0, cn, cp), (cn, 0, cp), (cp, cn, 0), (0, cp, cn)]
    for clause in cnf.clauses:
        # a clause of fewer than three literals nominates nothing at the rest
        columns.append(tuple(2 * abs(lit) - (lit > 0) for lit in clause) + (0,) * (3 - len(clause)))
    return tuple(zip(*columns)) or ((),) * 3  # without agents, three empty rows


def gen_gcse_3sat(cnf: CnfFormula) -> Instance:
    """3-SAT as a three-level egalitarian election with k = N, x = 0, y = 1."""
    if any(len(clause) > 3 for clause in cnf.clauses):
        raise ValueError("clauses must have at most three literals")
    _check_simple_clauses(cnf)
    rows = _threesat_rows(cnf)
    n = 6 * cnf.num_vars + len(cnf.clauses)
    return Instance(EGALITARIAN, n, 2 * cnf.num_vars, 3, cnf.num_vars, 0, 1, rows)


def gen_qcse_x13sat(cnf: CnfFormula) -> Instance:
    """Exactly-1-in-3 SAT as the same three-level gadget, equitable mode."""
    return replace(gen_gcse_3sat(cnf), mode=EQUITABLE)


def threesat_assignment_to_sequence(cnf: CnfFormula, assignment: tuple[bool, ...]) -> CommitteeSequence:
    """Witness map of the three-level construction: the assignment's
    candidate set, repeated at every level."""
    chosen = tuple(2 * i - 1 if assignment[i - 1] else 2 * i for i in range(1, cnf.num_vars + 1))
    return CommitteeSequence.of([chosen] * 3)


def threesat_sequence_to_assignment(cnf: CnfFormula, seq: CommitteeSequence) -> tuple[bool, ...]:
    return tuple(2 * i - 1 in seq.committees[0] for i in range(1, cnf.num_vars + 1))


def _literal_rows(cnf: CnfFormula, filler: int) -> tuple[tuple[int, ...], ...]:
    """One row per variable, one nomination per clause: candidate 1 where
    the clause holds the variable unnegated, 2 where negated, else ``filler``."""
    return tuple(
        tuple(1 if i in clause else 2 if -i in clause else filler for clause in cnf.clauses)
        for i in range(1, cnf.num_vars + 1)
    )


def gen_gcse_sat(cnf: CnfFormula) -> Instance:
    """SAT as an egalitarian election with two candidates: level per
    variable, agent per clause, k = 1, x = 0, y = 1."""
    if cnf.num_vars < 1:
        raise ValueError("need at least one variable")
    _check_simple_clauses(cnf)
    rows = _literal_rows(cnf, 0)
    return Instance(EGALITARIAN, len(cnf.clauses), 2, cnf.num_vars, 1, 0, 1, rows)


def sat_assignment_to_sequence(cnf: CnfFormula, assignment: tuple[bool, ...]) -> CommitteeSequence:
    """Witness map of the two-candidate construction: elect the truth
    candidate of each variable's value in that variable's level."""
    return CommitteeSequence.of([(1,) if assignment[i] else (2,) for i in range(cnf.num_vars)])


def sat_sequence_to_assignment(cnf: CnfFormula, seq: CommitteeSequence) -> tuple[bool, ...]:
    return tuple(1 in committee for committee in seq)


def gen_qcse_monotone_x13sat(cnf: CnfFormula) -> Instance:
    """Monotone exactly-1-in-3 SAT as a one-candidate equitable election.

    Levels 1..N decide the variables; electing the candidate in level i means
    "variable i is true".  Per variable, one extra level and two extra agents
    nominating the candidate in both of that variable's levels force election
    in exactly one of the two (the truth choice), keeping every gadget agent
    at score exactly one.
    """
    if any(lit < 0 for clause in cnf.clauses for lit in clause):
        raise ValueError("negated literal in monotone input")
    if cnf.num_vars < 1:
        raise ValueError("need at least one variable")
    _check_simple_clauses(cnf)
    n_levels = 2 * cnf.num_vars
    agent_levels = [set(clause) for clause in cnf.clauses]
    agent_levels += [{i, cnf.num_vars + i} for i in range(1, cnf.num_vars + 1) for _ in range(2)]
    columns = [tuple(int(t in levels) for t in range(1, n_levels + 1)) for levels in agent_levels]
    return Instance(EQUITABLE, len(columns), 1, n_levels, 1, 0, 1, tuple(zip(*columns)))


def gen_nmx(cnf: CnfFormula, mode: str) -> Instance:
    """Occurrence-restricted SAT variants with committees of size two and a
    filler candidate that rides along in (almost) every committee.

    Egalitarian input: exactly-3-literal clauses, every variable twice
    negated and twice unnegated.  Equitable input: monotone, exactly three
    occurrences per variable.  Parameters follow the construction:
    k = 2, y = tau - 2, x = M - 2 (egalitarian) or M - 3 (equitable).
    """
    _check_simple_clauses(cnf)
    if any(len(clause) != 3 for clause in cnf.clauses):
        raise ValueError("clauses must have exactly three literals")
    occurrences = Counter(lit for clause in cnf.clauses for lit in clause)
    n_clauses = len(cnf.clauses)
    tau = cnf.num_vars
    if mode == EGALITARIAN:
        for v in range(1, cnf.num_vars + 1):
            if occurrences[v] != 2 or occurrences[-v] != 2:
                raise ValueError(f"variable {v} must occur twice negated and twice unnegated")
        rows = _literal_rows(cnf, 3)
        return Instance(EGALITARIAN, n_clauses, 3, tau, 2, n_clauses - 2, tau - 2, rows)
    if mode == EQUITABLE:
        for v in range(1, cnf.num_vars + 1):
            if occurrences[-v] != 0:
                raise ValueError(f"variable {v} appears negated in equitable input")
            if occurrences[v] != 3:
                raise ValueError(f"variable {v} must occur exactly three times")
        rows = _literal_rows(cnf, 2)
        return Instance(EQUITABLE, n_clauses, 2, tau, 2, n_clauses - 3, tau - 2, rows)
    raise ValueError(f"unknown mode {mode!r}")


def or_compose(instances: list[Instance]) -> Instance:
    """OR-composition of 2^q two-candidate egalitarian instances.

    The inputs' levels are stacked side by side (each agent keeps its own
    instance's nominations), followed by q selector levels in which an agent
    of input j nominates candidate 1 where the q-bit encoding of j has a 0
    and candidate 2 where it has a 1.  The result is a yes iff some input is.
    """
    p = len(instances)
    if p < 1 or p & (p - 1):
        raise ValueError("need exactly 2^q input instances")
    q = p.bit_length() - 1
    tau = instances[0].tau
    for inst in instances:
        if inst.mode != EGALITARIAN:
            raise ValueError("composition is defined for egalitarian inputs only")
        if (inst.m, inst.k, inst.x, inst.y, inst.tau) != (2, 1, 0, 1, tau):
            raise ValueError("inputs must share m=2, k=1, x=0, y=1 and one tau")
    rows = [[] for _ in range(tau + q)]
    for j, inst in enumerate(instances):
        bits = [(j >> (q - 1 - b)) & 1 for b in range(q)]
        for t0 in range(tau):
            rows[t0].extend(inst.profile[t0])
        for b in range(q):
            rows[tau + b].extend([1 + bits[b]] * inst.n)
    n = sum(inst.n for inst in instances)
    return Instance(EGALITARIAN, n, 2, tau + q, 1, 0, 1, tuple(map(tuple, rows)))


def gen_3part(values: list[int], mode: str) -> Instance:
    """3-Partition as an election whose profile repeats identically at every
    level: integer s_i becomes s_i agents nominating candidate i, with
    x = T, k = 3, y = 1; solutions are exactly the partitions into triples
    of sum T."""
    if len(values) == 0 or len(values) % 3:
        raise ValueError("need a multiset of 3*t positive integers")
    if any(v < 1 for v in values):
        raise ValueError("values must be positive")
    groups = len(values) // 3
    total = sum(values)
    if total % groups:
        raise ValueError("sum must split evenly over the triples")
    target = total // groups
    row = tuple(i + 1 for i, v in enumerate(values) for _ in range(v))
    return Instance(mode, total, len(values), groups, 3, target, 1, (row,) * groups)


def random_instance(
    seed: int,
    n: int,
    m: int,
    tau: int,
    k: int,
    x: int,
    y: int,
    mode: str,
    empty_prob: float = 0.0,
) -> Instance:
    """Seed-reproducible instance; every nomination is independently empty
    with probability ``empty_prob``, else uniform over the candidates.

    The stream is ``random.Random(seed)``, level by level and agent by agent.
    Where m > 0, each nomination first draws ``random()`` against
    ``empty_prob``; a nonempty one is ``1 + getrandbits(m.bit_length())``,
    redrawn until it is at most m.  That is exactly the rejection sampling
    ``randint(1, m)`` performs, so the draws are the ones ``randint`` makes;
    the tests pin the resulting documents and compare with a ``randint``
    loop."""
    if not 0.0 <= empty_prob <= 1.0:
        raise ValueError("empty_prob must be in [0, 1]")
    rng = random.Random(seed)
    uniform, bits = rng.random, rng.getrandbits
    width = m.bit_length()
    rows = []
    for _ in range(tau):
        row = []
        append = row.append
        for _ in range(n):
            if m <= 0 or uniform() < empty_prob:  # m < 0: the model rejects it
                append(0)
            else:
                r = bits(width)
                while r >= m:
                    r = bits(width)
                append(r + 1)
        rows.append(tuple(row))
    return Instance(mode, n, m, tau, k, x, y, tuple(rows))
