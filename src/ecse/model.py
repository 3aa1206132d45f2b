"""Core data model for committee-sequence elections.

An election runs over ``tau`` levels (days, sessions, ...).  In each level
every agent nominates at most one candidate; the task is to pick one committee
per level, each of size at most ``k``, such that every level collects at least
``x`` nominations and every agent sees her nominee elected in at least
(egalitarian mode) or exactly (equitable mode) ``y`` levels.

Conventions used throughout the package:

* candidate ids are 1-based; ``0`` in a profile row is the "nominates nothing"
  sentinel,
* level indices ``t`` and agent indices ``a`` in public signatures are 1-based,
* committees are canonical tuples of strictly increasing candidate ids.

All values are immutable, and every function here is pure except
:func:`dfs`, whose callbacks may change state the caller shares with them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from math import comb

EGALITARIAN = "egalitarian"
EQUITABLE = "equitable"
MODES = (EGALITARIAN, EQUITABLE)

#: comparator tokens accepted by :class:`ComparatorSpec`, each to its relation
CMP_LE = "<="
CMP_EQ = "="
CMP_GE = ">="
COMPARATORS = {CMP_LE: operator.le, CMP_EQ: operator.eq, CMP_GE: operator.ge}

Committee = tuple[int, ...]


class GuardExceeded(RuntimeError):
    """Base class for "refused to run, would blow up" errors.

    Raised instead of a wrong or slow answer whenever an enumeration or table
    guard trips; never raised for infeasible instances.
    """


class EnumerationLimitError(GuardExceeded):
    """Too many distinct candidates or subsets in a level for enumeration."""


class UndecidedError(GuardExceeded):
    """Search budget exhausted before a verdict; never a wrong answer."""


#: default node budget of the branching and IP searches (``--max-nodes`` sets it)
MAX_NODES = 2_000_000


def dfs(root, expand, max_nodes: int) -> bool:
    """Depth-first search over an explicit stack; True iff a node accepts.

    ``expand(state)`` returns True to accept, a falsy value to reject, or an
    iterator over the child states (never None).  A child iterator may make
    its change before each ``yield`` and undo it after, so the changes along
    an accepting path stay in place.  Raises :class:`UndecidedError` instead
    of a ``max_nodes + 1``-th expansion.
    """
    stack = [iter((root,))]
    nodes = 0
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > max_nodes:
            raise UndecidedError(f"gave up after {max_nodes} search nodes")
        found = expand(state)
        if found is True:
            return True
        if found:
            stack.append(found)
    return False


#: most subsets :func:`valid_committees` tries in one level
MAX_COMMITTEES = 2**20


def _check_shape(inst) -> None:
    """Validation shared by both instance types: mode, sizes, and a profile
    of ``tau`` rows of ``n`` nominations in ``0..m``.

    Each row's distinct values are sorted once and kept as ``row_values``;
    a row is range-checked by the first and last of them, and only a row
    that fails is walked again, to name its first bad nomination."""
    if inst.mode not in MODES:
        raise ValueError(f"unknown mode {inst.mode!r}")
    if inst.n < 0 or inst.m < 0 or inst.tau < 1:
        raise ValueError("need n >= 0, m >= 0, tau >= 1")
    if len(inst.profile) != inst.tau:
        raise ValueError(f"profile has {len(inst.profile)} rows, expected {inst.tau}")
    row_values = []
    for row in inst.profile:
        if len(row) != inst.n:
            raise ValueError(f"profile row has {len(row)} entries, expected {inst.n}")
        values = tuple(sorted(set(row)))
        if values and (values[0] < 0 or values[-1] > inst.m):
            for c in row:
                if c < 0 or c > inst.m:
                    raise ValueError(f"nomination {c} out of range 0..{inst.m}")
        row_values.append(values)
    object.__setattr__(inst, "row_values", tuple(row_values))


@dataclass(frozen=True)
class _Election:
    """What both instance types share: the mode predicate, and
    ``row_values``, each profile row's distinct nominations in increasing
    order (0 first where a row has one), which validation computes and
    which takes no part in ``==``, ``hash`` or ``repr``."""

    __slots__ = ()

    row_values: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    @property
    def egalitarian(self) -> bool:
        return self.mode == EGALITARIAN


@dataclass(frozen=True)
class Instance(_Election):
    """One election instance.

    ``profile`` holds one row per level; ``profile[t][a]`` is the candidate
    agent ``a+1`` nominates in level ``t+1`` (0 = nominates nothing).
    ``kvec``, ``xvec`` and ``yvec`` give ``k``, ``x`` and ``y`` as the
    per-level and per-agent vectors a :class:`PeInstance` stores.
    """

    mode: str
    n: int
    m: int
    tau: int
    k: int
    x: int
    y: int
    profile: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_shape(self)
        if self.k < 0 or self.x < 0 or self.y < 0:
            raise ValueError("bounds k, x, y must be nonnegative")

    @property
    def kvec(self) -> tuple[int, ...]:
        return (self.k,) * self.tau

    @property
    def xvec(self) -> tuple[int, ...]:
        return (self.x,) * self.tau

    @property
    def yvec(self) -> tuple[int, ...]:
        return (self.y,) * self.n


@dataclass(frozen=True)
class PeInstance(_Election):
    """Election with pre-elected slack: per-level budgets/thresholds and
    per-agent targets.

    Entries of ``kvec``/``xvec``/``yvec`` may be negative: branching solvers
    subtract committed progress, so a negative budget signals infeasibility
    and a nonpositive threshold a constraint already met (egalitarian mode).
    """

    mode: str
    n: int
    m: int
    tau: int
    kvec: tuple[int, ...]
    xvec: tuple[int, ...]
    yvec: tuple[int, ...]
    profile: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_shape(self)
        if len(self.kvec) != self.tau or len(self.xvec) != self.tau:
            raise ValueError("kvec/xvec must have one entry per level")
        if len(self.yvec) != self.n:
            raise ValueError("yvec must have one entry per agent")


def lift(inst: Instance) -> PeInstance:
    """Embed a plain instance as the pre-elected instance of its vectors."""
    return PeInstance(inst.mode, inst.n, inst.m, inst.tau, inst.kvec, inst.xvec, inst.yvec, inst.profile)


@dataclass(frozen=True)
class CommitteeSequence:
    """One committee per level; the witness object returned by solvers."""

    committees: tuple[Committee, ...]

    def __post_init__(self):
        for committee in self.committees:
            if list(committee) != sorted(set(committee)) or (committee and committee[0] < 1):
                raise ValueError(f"committee {committee} must list positive ids in strictly increasing order")

    @classmethod
    def of(cls, committees) -> "CommitteeSequence":
        """Normalize arbitrary per-level candidate collections."""
        return cls(tuple(tuple(sorted(set(c))) for c in committees))

    def __len__(self) -> int:
        return len(self.committees)

    def __iter__(self):
        return iter(self.committees)


@dataclass(frozen=True)
class Violation:
    """First constraint failure found by :func:`verify`.

    ``kind`` is one of ``level-size``, ``level-score``, ``agent-score``;
    ``index`` is the offending 1-based level or agent.
    """

    kind: str
    index: int


@dataclass(frozen=True)
class VerificationReport:
    level_scores: tuple[int, ...]
    agent_scores: tuple[int, ...]
    first_violation: Violation | None = None

    @property
    def feasible(self) -> bool:
        return self.first_violation is None


@dataclass(frozen=True)
class ComparatorSpec:
    """Comparator triple for the generalized feasibility check.

    ``cmp_k`` constrains committee sizes, ``cmp_x`` level scores, ``cmp_y``
    agent scores.  ``("<=", ">=", ">=")`` is the egalitarian problem and
    ``("<=", ">=", "=")`` the equitable one.
    """

    cmp_k: str
    cmp_x: str
    cmp_y: str

    def __post_init__(self):
        for op in (self.cmp_k, self.cmp_x, self.cmp_y):
            if op not in COMPARATORS:
                raise ValueError(f"unknown comparator {op!r}")


EGALITARIAN_SPEC = ComparatorSpec(CMP_LE, CMP_GE, CMP_GE)
EQUITABLE_SPEC = ComparatorSpec(CMP_LE, CMP_GE, CMP_EQ)


@dataclass(frozen=True)
class SolveResult:
    """Solver verdict plus optional witness and counters."""

    verdict: str
    witness: CommitteeSequence | None = None
    stats: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("yes", "no"):
            raise ValueError(f"verdict must be yes/no, got {self.verdict!r}")
        if (self.verdict == "yes") != (self.witness is not None):
            raise ValueError("witness must be present exactly on yes")

    @classmethod
    def yes(cls, witness: CommitteeSequence, stats=None) -> "SolveResult":
        return cls("yes", witness, dict(stats or {}))

    @classmethod
    def no(cls, stats=None) -> "SolveResult":
        return cls("no", None, dict(stats or {}))


# -- scores and feasibility ---------------------------------------------------


def _check_level(inst, t: int) -> None:
    if not 1 <= t <= inst.tau:
        raise IndexError(f"level {t} out of range 1..{inst.tau}")


def _check_agent(inst, a: int) -> None:
    if not 1 <= a <= inst.n:
        raise IndexError(f"agent {a} out of range 1..{inst.n}")


def committee_score(inst, t: int, committee) -> int:
    """Number of agents whose level-``t`` nomination lands in ``committee``."""
    _check_level(inst, t)
    chosen = set(committee)
    return sum(1 for c in inst.profile[t - 1] if c != 0 and c in chosen)


def agent_score(inst, a: int, seq: CommitteeSequence) -> int:
    """Number of levels in which agent ``a``'s nominee is elected."""
    _check_agent(inst, a)
    return _all_scores(inst, seq)[1][a - 1]


def _all_scores(inst, seq: CommitteeSequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if len(seq) != inst.tau:
        raise ValueError(f"sequence has {len(seq)} committees, expected {inst.tau}")
    level_scores = []
    agent_scores = [0] * inst.n
    for row, committee in zip(inst.profile, seq):
        # committee ids are positive, so a 0 (no nomination) never hits
        chosen = set(committee)
        hits = [c in chosen for c in row]
        level_scores.append(sum(hits))
        agent_scores = list(map(operator.add, agent_scores, hits))
    return tuple(level_scores), tuple(agent_scores)


def verify_generalized(
    inst: Instance | PeInstance, spec: ComparatorSpec, seq: CommitteeSequence
) -> VerificationReport:
    """Check ``seq`` against the comparator triple ``spec``, each level
    against its own budget and threshold and each agent against its own
    target (constant on a plain instance).

    Violations are reported in level order (size before score), then agent
    order; the report always carries all level and agent scores.
    """
    level_scores, agent_scores = _all_scores(inst, seq)
    violation = None
    for t0, (committee, k, x) in enumerate(zip(seq, inst.kvec, inst.xvec)):
        if not COMPARATORS[spec.cmp_k](len(committee), k):
            violation = Violation("level-size", t0 + 1)
            break
        if not COMPARATORS[spec.cmp_x](level_scores[t0], x):
            violation = Violation("level-score", t0 + 1)
            break
    if violation is None:
        passed = list(map(COMPARATORS[spec.cmp_y], agent_scores, inst.yvec))
        if not all(passed):
            violation = Violation("agent-score", passed.index(False) + 1)
    return VerificationReport(level_scores, agent_scores, violation)


def verify(inst: Instance | PeInstance, seq: CommitteeSequence) -> VerificationReport:
    """Feasibility report for ``seq`` under the instance's own mode."""
    spec = EGALITARIAN_SPEC if inst.egalitarian else EQUITABLE_SPEC
    return verify_generalized(inst, spec, seq)


# -- per-level structure ------------------------------------------------------


def row_support(row) -> dict[int, int]:
    """Support count per candidate nominated in one profile row."""
    support: dict[int, int] = {}
    for c in row:
        if c != 0:
            support[c] = support.get(c, 0) + 1
    return support


def greedy_committee(support: dict[int, int], k: int, include: int | None = None) -> Committee:
    """Score-maximal committee of size <= k, optionally forced to contain
    ``include``; ties among equally supported candidates break by id."""
    ranked = sorted(support, key=lambda c: (-support[c], c))
    picked: list[int] = []
    if include is not None:
        if k < 1:
            return ()
        picked.append(include)
    for c in ranked:
        if len(picked) >= k:
            break
        if c != include:
            picked.append(c)
    return tuple(sorted(picked))


def _top_score(supports, k: int) -> int:
    """Score of the best committee of at most ``k`` candidates with these
    ``supports``."""
    return sum(sorted(supports, reverse=True)[:k])


def subsets_to_try(d: int, k: int) -> int:
    """Subsets of at most ``k`` of ``d`` candidates, which
    :func:`valid_committees` tries on a level with ``d`` nominated."""
    return sum(comb(d, s) for s in range(min(k, d) + 1))


def valid_committees(support: dict[int, int], k: int, x: int) -> list[Committee]:
    """All committees of nominated candidates with size <= k and score >= x,
    in (size, lexicographic) order.  Refuses above 30 distinct candidates or
    :data:`MAX_COMMITTEES` subsets to try."""
    nominated = sorted(support)
    d = len(nominated)
    if d > 30 or subsets_to_try(d, k) > MAX_COMMITTEES:
        raise EnumerationLimitError(
            f"{d} distinct candidates with k={k} in one level exceed the enumeration guard"
        )
    out: list[Committee] = []
    for size in range(min(k, d) + 1):
        for combo in itertools.combinations(nominated, size):
            if sum(map(support.__getitem__, combo)) >= x:
                out.append(combo)
    return out


def enumerate_valid_committees(inst, t: int) -> list[Committee]:
    """All valid committees at level ``t``: subsets of the candidates
    nominated there with size <= ``kvec[t]`` and committee score >=
    ``xvec[t]`` (``k`` and ``x`` on a plain instance).

    Candidates nominated by nobody are omitted since adding them never
    changes any score.  Raises :class:`EnumerationLimitError` where
    :func:`valid_committees` refuses.
    """
    _check_level(inst, t)
    return valid_committees(row_support(inst.profile[t - 1]), inst.kvec[t - 1], inst.xvec[t - 1])


# -- candidate renaming (cuts m down to at most n) ----------------------------


@dataclass(frozen=True)
class CandidateRenaming:
    """Per level, 0 and then the original candidate ids in order of first nomination."""

    new_to_old: tuple[tuple[int, ...], ...]

    def lift(self, seq: CommitteeSequence) -> CommitteeSequence:
        """Map a renamed-instance witness back to original candidate ids;
        a sequence of the wrong length raises ValueError."""
        pairs = zip(self.new_to_old, seq, strict=True)
        return CommitteeSequence.of(map(back.__getitem__, committee) for back, committee in pairs)


def rename_candidates(inst: Instance) -> tuple[Instance, CandidateRenaming]:
    """Relabel candidates per level in order of first nomination.

    The result has exactly ``n`` candidates of which each level uses a
    prefix, and, per level, the same nomination coincidence pattern, so the
    verdict is unchanged (committees never interact across levels).  The
    returned renaming lifts witnesses back to original ids.
    """
    new_to_old: list[tuple[int, ...]] = []
    rows: list[tuple[int, ...]] = []
    for row in inst.profile:
        fwd: dict[int, int] = {}
        for c in row:
            if c != 0 and c not in fwd:
                fwd[c] = len(fwd) + 1
        rows.append(tuple(fwd[c] if c != 0 else 0 for c in row))
        new_to_old.append((0, *fwd))
    renamed = Instance(inst.mode, inst.n, inst.n, inst.tau, inst.k, inst.x, inst.y, tuple(rows))
    return renamed, CandidateRenaming(tuple(new_to_old))


# -- trivial cases ------------------------------------------------------------


def trivial_solve(inst: Instance) -> SolveResult | None:
    """Dispatch the linear-time special cases; None when none applies.

    Cases, in order: y > tau (no, unless there are no agents to satisfy
    and no threshold to meet), y = 0, y = tau, and k >= m (egalitarian
    only).  The fired rule is flagged in ``stats`` as ``trivial_<rule>``.
    """
    if inst.y > inst.tau:
        if inst.n == 0 and inst.x == 0:
            return SolveResult.yes(CommitteeSequence.of([()] * inst.tau), {"trivial_y_gt_tau": 1})
        return SolveResult.no({"trivial_y_gt_tau": 1})

    if inst.y == 0:
        if inst.egalitarian:
            # per level the top-k committee is score-maximal; with x = 0
            # the empty one will do
            committees = [()] * inst.tau
            if inst.x > 0:
                for t0, row in enumerate(inst.profile):
                    support = row_support(row)
                    if _top_score(support.values(), inst.k) < inst.x:
                        return SolveResult.no({"trivial_y0_egalitarian": 1})
                    committees[t0] = greedy_committee(support, inst.k)
            return SolveResult.yes(CommitteeSequence.of(committees), {"trivial_y0_egalitarian": 1})
        # equitable: electing any nominated candidate overshoots its nominator
        if inst.x == 0:
            empty = CommitteeSequence.of([()] * inst.tau)
            return SolveResult.yes(empty, {"trivial_y0_equitable": 1})
        return SolveResult.no({"trivial_y0_equitable": 1})

    if inst.y == inst.tau:
        # every agent must score in every level: elect all nominated candidates
        stats = {"trivial_y_eq_tau": 1}
        committees = inst.row_values
        if inst.n < inst.x or any(0 in c or len(c) > inst.k for c in committees):
            return SolveResult.no(stats)
        return SolveResult.yes(CommitteeSequence(committees), stats)

    if inst.egalitarian and inst.k >= inst.m:
        # electing everything is optimal, so the instance is a yes iff that is feasible
        return _judge_extreme(inst, EGALITARIAN_SPEC, range(1, inst.m + 1), "trivial_k_ge_m")

    return None


def _judge_extreme(inst, spec: ComparatorSpec, committee, rule: str) -> SolveResult:
    """Yes iff ``committee`` in every level satisfies ``spec``; flags ``rule``."""
    extreme = CommitteeSequence.of([committee] * inst.tau)
    feasible = verify_generalized(inst, spec, extreme).feasible
    return SolveResult.yes(extreme, {rule: 1}) if feasible else SolveResult.no({rule: 1})


def solve_easy_generalized(inst: Instance, spec: ComparatorSpec) -> SolveResult | None:
    """Extreme-committee solver for the two polynomial comparator triples.

    ``(<=, <=, <=)`` is satisfied by all-empty committees; ``(>=, >=, >=)``
    by electing every candidate everywhere (scores and sizes are monotone),
    which fails only if the full sequence itself fails.  Returns None for
    every other triple.
    """
    if spec == ComparatorSpec(CMP_LE, CMP_LE, CMP_LE):
        rule, committee = "easy_all_empty", ()
    elif spec == ComparatorSpec(CMP_GE, CMP_GE, CMP_GE):
        rule, committee = "easy_all_candidates", range(1, inst.m + 1)
    else:
        return None
    return _judge_extreme(inst, spec, committee, rule)
