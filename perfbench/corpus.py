"""Seeded corpus generation for the benchmark workloads.

Each workload is a fixed mix of instance families.  A family draws its
instances from a ``random.Random`` seeded with the workload name, the family
name and the benchmark seed, so the same seed gives byte-identical ``.ecse``
files.  Every instance carries a reference verdict together with the source
of that reference:

* ``oracle``: ``brute_solve``, the exhaustive reference solver;
* ``sources``: the exhaustive checker of the reduction's source problem
  (``ecse.sources``), cross-checked against ``brute_solve`` where the
  instance is small enough;
* ``dp``: the score DP, used only for families that ``auto`` routes to
  branching or to the IP;
* ``construction``: the generator planted a witness, checked with
  ``verify``, or the verdict follows in closed form from the construction.

No reference comes from the back-end that ``auto`` picks for that family.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from ecse import formats
from ecse.generators import (
    BipartiteGraph,
    CnfFormula,
    gen_3part,
    gen_from_cbvc,
    gen_gcse_3sat,
    gen_gcse_sat,
    random_instance,
)
from ecse.model import EGALITARIAN, EQUITABLE, CommitteeSequence, Instance, verify
from ecse.oracle import OracleLimits, brute_solve
from ecse.score_dp import solve_dp
from ecse.sources import cbvc_has_cover, sat_satisfiable, three_partition_exists


class SetupError(RuntimeError):
    """Two references disagree, or a construction failed its own check."""


@dataclass(frozen=True)
class Case:
    """One corpus instance with its reference verdict."""

    name: str
    family: str
    instance: Instance
    verdict: str
    source: str


# A draw returns ``(instance, source, reference)``; ``reference`` is a
# thunk giving the yes/no flag, so that set-up can time generation and
# reference computation apart.


def _oracle(inst: Instance, limits: OracleLimits | None = None):
    return lambda: brute_solve(inst, limits).verdict == "yes"


def _cross_checked(name: str, inst: Instance, source_flag):
    def reference() -> bool:
        flag = source_flag()
        if flag != (brute_solve(inst).verdict == "yes"):
            raise SetupError(f"{name}: ecse.sources and brute_solve disagree")
        return flag

    return reference


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int, width: int) -> CnfFormula:
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))


def _check_planted(inst: Instance, committees) -> None:
    if not verify(inst, CommitteeSequence.of(committees)).feasible:
        raise SetupError("planted witness fails verify")


# -- oracle-mix ---------------------------------------------------------------

SMALL_DP_WORK = 3000

# Each family fixes the route ``auto`` takes, and every family is balanced
# between yes and no, so that a seed changes contents but not how many
# instances take the trivial rules, the two-level pipeline or the score DP,
# whose per-call costs differ.


def _small(rng: random.Random, n: int, m: int, tau: int, k: int, y: int, mode: str):
    empty = rng.choice((0.0, 0.0, 0.2))
    inst = random_instance(rng.randrange(2**31), n, m, tau, k, rng.randint(0, n), y, mode, empty)
    return inst, "oracle", _oracle(inst)


def _small_trivial(rng: random.Random):
    """Parameters under which a rule of ``trivial_solve`` applies: y > tau,
    y = 0, y = tau, or egalitarian with k >= m."""
    n, m, tau, k = rng.randint(1, 8), rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 3)
    mode = rng.choice((EGALITARIAN, EQUITABLE))
    rule = rng.randrange(4)
    y = (tau + 1, 0, tau, rng.randint(1, tau))[rule]
    if rule == 3:
        mode, k = EGALITARIAN, m
    return _small(rng, n, m, tau, k, y, mode)


def _small_two_level(rng: random.Random):
    """Equitable with two levels and target one: the two-level pipeline."""
    return _small(rng, rng.randint(1, 8), rng.randint(1, 6), 2, rng.randint(0, 3), 1, EQUITABLE)


def _small_dp(rng: random.Random):
    """No trivial rule applies and the instance is not equitable with two
    levels, so ``auto`` runs the score DP.  Its work per level, at most
    ``(y+1)^n`` score vectors times the committees of size at most ``k``,
    stays under ``SMALL_DP_WORK``: this workload measures per-call costs,
    and the DP cliff has its own family in ``search-cliffs``."""
    mode = rng.choice((EGALITARIAN, EQUITABLE))
    n, m = rng.randint(1, 8), rng.randint(1, 6)
    tau = rng.randint(2, 6) if mode == EGALITARIAN else rng.randint(3, 6)
    k = rng.randint(0, min(3, m - 1)) if mode == EGALITARIAN else rng.randint(0, 3)
    y = rng.randint(1, tau - 1)
    committees = sum(math.comb(m, size) for size in range(k + 1))
    while (y + 1) ** n * committees > SMALL_DP_WORK:
        if y > 1:
            y -= 1
        else:
            n -= 1
    return _small(rng, n, m, tau, k, y, mode)


def _small_sat(rng: random.Random):
    cnf = _random_cnf(rng, rng.randint(2, 4), rng.randint(3, 8), rng.randint(1, 2))
    inst = gen_gcse_sat(cnf)
    return inst, "sources", _cross_checked("sat", inst, lambda: sat_satisfiable(cnf))


def _small_cbvc(rng: random.Random):
    n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
    pairs = [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
    edges = tuple(sorted(rng.sample(pairs, rng.randint(1, min(8, len(pairs))))))
    graph, k = BipartiteGraph(n1, n2, edges), rng.randint(1, 3)
    inst = gen_from_cbvc(graph, k)
    return inst, "sources", _cross_checked("cbvc", inst, lambda: cbvc_has_cover(graph, k, k))


# -- search-cliffs ------------------------------------------------------------

# brute force decides the egalitarian DP family in milliseconds, but the
# family has more levels than the default oracle limits allow
_DP_FAMILY_LIMITS = OracleLimits(max_tau=7)


def _dp_random(rng: random.Random):
    inst = random_instance(rng.randrange(2**31), 6, 5, 7, 2, 3, 3, EGALITARIAN)
    return inst, "oracle", _oracle(inst, _DP_FAMILY_LIMITS)


def _dp_sat(rng: random.Random):
    cnf = _random_cnf(rng, 4, 12, rng.randint(2, 3))
    return gen_gcse_sat(cnf), "sources", lambda: sat_satisfiable(cnf)


def _branch_random(rng: random.Random):
    inst = random_instance(rng.randrange(2**31), 13, 4, 7, 2, 3, 2, EQUITABLE)
    return inst, "dp", lambda: solve_dp(inst).verdict == "yes"


def _branch_planted(rng: random.Random):
    """Equitable instance with a planted witness: each agent nominates a
    member of the planted committee in exactly ``y`` levels and a
    non-member elsewhere; ``x`` is the tightest planted level score."""
    n, m, tau, k, y = 13, 4, 7, 2, 2
    committees = [tuple(sorted(rng.sample(range(1, m + 1), k))) for _ in range(tau)]
    rows = [[0] * n for _ in range(tau)]
    for a0 in range(n):
        hits = set(rng.sample(range(tau), y))
        for t0, committee in enumerate(committees):
            if t0 in hits:
                rows[t0][a0] = rng.choice(committee)
            else:
                rows[t0][a0] = rng.choice([c for c in range(1, m + 1) if c not in committee])
    x = min(sum(1 for c in row if c in committee) for row, committee in zip(rows, committees))
    inst = Instance(EQUITABLE, n, m, tau, k, x, y, tuple(map(tuple, rows)))
    _check_planted(inst, committees)
    return inst, "construction", lambda: True


def _branch_3sat(rng: random.Random):
    cnf = _random_cnf(rng, 3, 10, 3)
    return gen_gcse_3sat(cnf), "sources", lambda: sat_satisfiable(cnf)


def _branch_3part(rng: random.Random):
    values = [rng.randint(2, 9) for _ in range(6)]
    if sum(values) % 2:
        values[0] += 1
    return gen_3part(values, EGALITARIAN), "sources", lambda: three_partition_exists(values)


def _repeat_types(rows_of_type, tau: int):
    """Level ``t`` repeats the row of type ``t mod types``, so the IP sees
    few level types however many levels there are."""
    return tuple(tuple(rows_of_type[t0 % len(rows_of_type)]) for t0 in range(tau))


def _ip_random(rng: random.Random):
    n, m, tau, types, k, x, y = 13, 3, 26, 3, 2, 1, 1
    base = random_instance(rng.randrange(2**31), n, m, types, k, x, y, EQUITABLE)
    inst = Instance(EQUITABLE, n, m, tau, k, x, y, _repeat_types(base.profile, tau))
    return inst, "dp", lambda: solve_dp(inst).verdict == "yes"


def _ip_planted(rng: random.Random):
    """Egalitarian repeated-row instance with a planted witness: every agent
    nominates a planted committee member in the row of one level type."""
    n, m, tau, types, k, y = 13, 4, 26, 3, 2, 2
    committees = [tuple(sorted(rng.sample(range(1, m + 1), k))) for _ in range(types)]
    rows = [[rng.randint(1, m) for _ in range(n)] for _ in range(types)]
    for a0 in range(n):
        ty = rng.randrange(types)
        rows[ty][a0] = rng.choice(committees[ty])
    profile = _repeat_types(rows, tau)
    planted = _repeat_types(committees, tau)
    x = min(sum(1 for c in row if c in committee) for row, committee in zip(profile, planted))
    inst = Instance(EGALITARIAN, n, m, tau, k, x, y, profile)
    _check_planted(inst, planted)
    return inst, "construction", lambda: True


# -- tau2-scale ---------------------------------------------------------------
#
# With target one and two levels, every agent is an edge between its two
# nominees, and an equitable committee pair is an independent vertex cover:
# it takes exactly one full side of every connected component.  The families
# below fix their components by construction, so the verdict is a closed
# form in how many components take the left side.  Draw ``i`` of a family
# constructs a yes when ``i`` is even and a no when it is odd.  Sizes do not
# depend on the seed, and each family's solve times stay apart from the
# others' (blocks < uniform < cascades), so that the medians and the p75
# tail fall inside one family rather than on the edge between two.


def _blocks(rng: random.Random, agents: int, groups: int, first: int):
    """``agents`` edges in ``groups`` components; group ``g`` joins left
    candidates ``first+4g+1..2`` to right ones ``first+4g+3..4``, and its
    first three agents connect all four."""
    row1, row2 = [], []
    for a in range(agents):
        g, r = a % groups, a // groups
        if r < 3:
            left, right = ((1, 3), (2, 3), (2, 4))[r]
        else:
            left, right = rng.randint(1, 2), rng.randint(3, 4)
        row1.append(first + 4 * g + left)
        row2.append(first + 4 * g + right)
    return row1, row2


def _sides_fit(budget1: int, budget2: int, need1: int, need2: int, groups: int, edges: int) -> bool:
    """Some ``j`` of ``groups`` two-by-two components with ``edges`` edges
    each take the left side and the rest the right, within both budgets and
    reaching both score targets."""
    return any(
        2 * j <= budget1 and 2 * (groups - j) <= budget2
        and j * edges >= need1 and (groups - j) * edges >= need2
        for j in range(groups + 1)
    )


def _cascade(rng: random.Random, i: int):
    """Forcing chains ``(p,0) (p,q) (r,q)``: the first agent forces ``p``,
    which erases ``q`` and so forces ``r``; each chain spends two level-one
    seats.  Block filler follows with ``x = 0``; all chains are forced before
    the sweep decides, so both verdicts pay for the whole cascade."""
    agents, chains, groups = 10_000, 100, 300
    row1, row2 = [], []
    for chain in range(chains):
        p, r, q = 3 * chain + 1, 3 * chain + 2, 3 * chain + 3
        row1 += [p, p, r]
        row2 += [0, q, q]
    fill1, fill2 = _blocks(rng, agents - 3 * chains, groups, 3 * chains)
    # the sweep needs k >= chains + groups; forcing alone needs k >= 2 chains
    if i % 2 == 0:
        k = chains + groups + rng.randint(0, 3)
    else:
        k = chains + groups - rng.randint(1, 3)
    flag = _sides_fit(k - 2 * chains, k, 0, 0, groups, 1)
    inst = Instance(EQUITABLE, agents, 3 * chains + 4 * groups, 2, k, 0, 1,
                    (tuple(row1 + fill1), tuple(row2 + fill2)))
    return inst, "construction", lambda: flag


def _block(rng: random.Random, i: int):
    """Fifty equal components with a level threshold near half the agents."""
    groups = 50
    agents = (20_000, 25_000, 30_000, 40_000)[i % 4]
    row1, row2 = _blocks(rng, agents, groups, 0)
    if i % 2 == 0:
        k, x = rng.choice((groups, groups + 2)), rng.randint(agents * 2 // 5, agents // 2)
    elif rng.random() < 0.5:
        k, x = groups - 2, rng.randint(agents * 2 // 5, agents // 2)
    else:
        k, x = groups + 2, agents // 2 + rng.randint(1, agents // 20)
    flag = _sides_fit(k, k, x, x, groups, agents // groups)
    inst = Instance(EQUITABLE, agents, 4 * groups, 2, k, x, 1, (tuple(row1), tuple(row2)))
    return inst, "construction", lambda: flag


def _uniform(rng: random.Random, i: int):
    """Uniform nominations over 40 candidates per level: one component
    spanning both sides (checked), so with ``x = 0`` the verdict is whether
    the smaller side fits the budget, and with ``x > 0`` it is no."""
    agents, m = 50_000, 40
    k, x = (45, 0) if i % 2 == 0 else rng.choice(((30, 0), (45, 1)))
    inst = random_instance(rng.randrange(2**31), agents, m, 2, k, x, 1, EQUITABLE)
    if not _connected(inst.profile[0], inst.profile[1]):
        raise SetupError("uniform two-level instance is not connected")
    sides = min(len(set(inst.profile[0])), len(set(inst.profile[1])))
    flag = x == 0 and sides <= k
    return inst, "construction", lambda: flag


def _connected(row1, row2) -> bool:
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in set(zip(row1, row2)):
        parent[find((1, u))] = find((2, v))
    return len({find(v) for v in list(parent)}) == 1


# -- workloads ----------------------------------------------------------------

# How a family's verdicts are spread:
ANY = "any"  # whatever the draws give
BALANCED = "balanced"  # half yes, half no, by rejecting draws
ALTERNATE = "alternate"  # draw i is built to be a yes exactly when i is even

# workload -> (family, draw, count, spread)
FAMILIES = {
    "oracle-mix": (
        ("trivial", _small_trivial, 80, BALANCED),
        ("two-level", _small_two_level, 40, BALANCED),
        ("dp", _small_dp, 200, BALANCED),
        ("sat", _small_sat, 40, BALANCED),
        ("cbvc", _small_cbvc, 40, BALANCED),
    ),
    "search-cliffs": (
        ("dp-random", _dp_random, 60, ANY),
        ("dp-sat", _dp_sat, 20, BALANCED),
        ("branch-random", _branch_random, 120, ANY),
        ("branch-planted", _branch_planted, 60, ANY),
        ("branch-3sat", _branch_3sat, 30, BALANCED),
        ("branch-3part", _branch_3part, 10, BALANCED),
        ("ip-random", _ip_random, 5, ANY),
        ("ip-planted", _ip_planted, 5, ANY),
    ),
    "tau2-scale": (
        ("cascade", _cascade, 6, ALTERNATE),
        ("block", _block, 4, ALTERNATE),
        ("uniform", _uniform, 8, ALTERNATE),
    ),
}

class _Clock:
    """Accumulates generation and reference seconds over many draws."""

    def __init__(self):
        self.generate_s = 0.0
        self.reference_s = 0.0

    def draw(self, draw, *args) -> tuple[Instance, str, bool]:
        started = time.perf_counter()
        inst, source, reference = draw(*args)
        drawn = time.perf_counter()
        flag = reference()
        self.generate_s += drawn - started
        self.reference_s += time.perf_counter() - drawn
        return inst, source, flag


def _family(clock: _Clock, rng: random.Random, draw, count: int, spread: str):
    if spread == ANY:
        return [clock.draw(draw, rng) for _ in range(count)]
    if spread == ALTERNATE:
        out = [clock.draw(draw, rng, i) for i in range(count)]
        if [flag for _, _, flag in out] != [i % 2 == 0 for i in range(count)]:
            raise SetupError("construction gave the wrong verdict")
        return out
    want = {True: count - count // 2, False: count // 2}
    out = []
    for _ in range(200 * count):
        if not any(want.values()):
            return out
        drawn = clock.draw(draw, rng)
        if want[drawn[2]]:
            want[drawn[2]] -= 1
            out.append(drawn)
    raise SetupError(f"no balanced verdicts after {200 * count} draws")


@dataclass
class Corpus:
    cases: list[Case]
    generate_s: float
    reference_s: float
    write_s: float
    digest: str

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.reference_s + self.write_s


def build(workload: str, seed: int, directory: Path) -> Corpus:
    """Generate the workload's instances, compute their references, and write
    one ``.ecse`` file per instance plus ``manifest.json`` (name, family,
    reference verdict and source) to ``directory``."""
    if workload not in FAMILIES:
        raise ValueError(f"unknown workload {workload!r}")
    clock = _Clock()
    cases: list[Case] = []
    for family, draw, count, spread in FAMILIES[workload]:
        rng = random.Random(f"{workload}/{family}/{seed}")
        for inst, source, flag in _family(clock, rng, draw, count, spread):
            name = f"{len(cases):04d}-{family}"
            cases.append(Case(name, family, inst, "yes" if flag else "no", source))

    started = time.perf_counter()
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.ecse"):
        stale.unlink()
    digest = hashlib.sha256()
    for case in cases:
        data = formats.serialize_instance(case.instance).encode("utf-8")
        (directory / f"{case.name}.ecse").write_bytes(data)
        digest.update(data)
    manifest = [
        {"name": c.name, "family": c.family, "verdict": c.verdict, "source": c.source}
        for c in cases
    ]
    data = (json.dumps(manifest, indent=1) + "\n").encode("utf-8")
    (directory / "manifest.json").write_bytes(data)
    digest.update(data)
    write_s = time.perf_counter() - started
    return Corpus(cases, clock.generate_s, clock.reference_s, write_s, digest.hexdigest())
