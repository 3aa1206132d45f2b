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

All values are immutable; every function here is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

EGALITARIAN = "egalitarian"
EQUITABLE = "equitable"
MODES = (EGALITARIAN, EQUITABLE)

#: comparator tokens accepted by :class:`ComparatorSpec`
CMP_LE = "<="
CMP_EQ = "="
CMP_GE = ">="
COMPARATORS = (CMP_LE, CMP_EQ, CMP_GE)

Committee = tuple[int, ...]


class GuardExceeded(RuntimeError):
    """Base class for "refused to run, would blow up" errors.

    Raised instead of a wrong or slow answer whenever an enumeration or table
    guard trips; never raised for infeasible instances.
    """


class EnumerationLimitError(GuardExceeded):
    """Too many distinct candidates in a level for subset enumeration."""


def _as_committee(candidates) -> Committee:
    committee = tuple(sorted(set(candidates)))
    if committee and committee[0] < 1:
        raise ValueError(f"candidate ids must be positive, got {committee[0]}")
    return committee


def _check_shape(inst) -> None:
    """Validation shared by both instance types: mode, sizes, and a profile
    of ``tau`` rows of ``n`` nominations in ``0..m``."""
    if inst.mode not in MODES:
        raise ValueError(f"unknown mode {inst.mode!r}")
    if inst.n < 0 or inst.m < 0 or inst.tau < 1:
        raise ValueError("need n >= 0, m >= 0, tau >= 1")
    if len(inst.profile) != inst.tau:
        raise ValueError(f"profile has {len(inst.profile)} rows, expected {inst.tau}")
    for row in inst.profile:
        if len(row) != inst.n:
            raise ValueError(f"profile row has {len(row)} entries, expected {inst.n}")
        for c in row:
            if c < 0 or c > inst.m:
                raise ValueError(f"nomination {c} out of range 0..{inst.m}")


@dataclass(frozen=True)
class Instance:
    """One election instance.

    ``profile`` holds one row per level; ``profile[t][a]`` is the candidate
    agent ``a+1`` nominates in level ``t+1`` (0 = nominates nothing).
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
    def egalitarian(self) -> bool:
        return self.mode == EGALITARIAN


@dataclass(frozen=True)
class PeInstance:
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

    @property
    def egalitarian(self) -> bool:
        return self.mode == EGALITARIAN


def lift(inst: Instance) -> PeInstance:
    """Embed a plain instance: constant per-level bounds, uniform targets."""
    return PeInstance(
        inst.mode,
        inst.n,
        inst.m,
        inst.tau,
        (inst.k,) * inst.tau,
        (inst.x,) * inst.tau,
        (inst.y,) * inst.n,
        inst.profile,
    )


@dataclass(frozen=True)
class CommitteeSequence:
    """One committee per level; the witness object returned by solvers."""

    committees: tuple[Committee, ...]

    def __post_init__(self):
        for committee in self.committees:
            if list(committee) != sorted(set(committee)) or (committee and committee[0] < 1):
                raise ValueError(f"committee {committee} is not strictly increasing")

    @classmethod
    def of(cls, committees) -> "CommitteeSequence":
        """Normalize arbitrary per-level candidate collections."""
        return cls(tuple(_as_committee(c) for c in committees))

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
    feasible: bool
    level_scores: tuple[int, ...]
    agent_scores: tuple[int, ...]
    first_violation: Violation | None = None

    def __post_init__(self):
        if self.feasible != (self.first_violation is None):
            raise ValueError("feasible must mirror the absence of a violation")


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


def compares(op: str, lhs: int, rhs: int) -> bool:
    if op == CMP_LE:
        return lhs <= rhs
    if op == CMP_EQ:
        return lhs == rhs
    if op == CMP_GE:
        return lhs >= rhs
    raise ValueError(f"unknown comparator {op!r}")


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
    if len(seq) != inst.tau:
        raise ValueError(f"sequence has {len(seq)} committees, expected {inst.tau}")
    score = 0
    for row, committee in zip(inst.profile, seq):
        c = row[a - 1]
        if c != 0 and c in committee:
            score += 1
    return score


def _all_scores(inst, seq: CommitteeSequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if len(seq) != inst.tau:
        raise ValueError(f"sequence has {len(seq)} committees, expected {inst.tau}")
    level_scores = []
    agent_scores = [0] * inst.n
    for row, committee in zip(inst.profile, seq):
        chosen = set(committee)
        hit = 0
        for a0, c in enumerate(row):
            if c != 0 and c in chosen:
                hit += 1
                agent_scores[a0] += 1
        level_scores.append(hit)
    return tuple(level_scores), tuple(agent_scores)


def verify_generalized(inst: Instance, spec: ComparatorSpec, seq: CommitteeSequence) -> VerificationReport:
    """Check ``seq`` against the comparator triple ``spec``.

    Violations are reported in level order (size before score), then agent
    order; the report always carries all level and agent scores.
    """
    level_scores, agent_scores = _all_scores(inst, seq)
    violation = None
    for t0, committee in enumerate(seq):
        if not compares(spec.cmp_k, len(committee), inst.k):
            violation = Violation("level-size", t0 + 1)
            break
        if not compares(spec.cmp_x, level_scores[t0], inst.x):
            violation = Violation("level-score", t0 + 1)
            break
    if violation is None:
        for a0, score in enumerate(agent_scores):
            if not compares(spec.cmp_y, score, inst.y):
                violation = Violation("agent-score", a0 + 1)
                break
    return VerificationReport(violation is None, level_scores, agent_scores, violation)


def verify(inst: Instance, seq: CommitteeSequence) -> VerificationReport:
    """Feasibility report for ``seq`` under the instance's own mode."""
    spec = EGALITARIAN_SPEC if inst.egalitarian else EQUITABLE_SPEC
    return verify_generalized(inst, spec, seq)


def pe_feasible(pe: PeInstance, committees) -> bool:
    """Check a committee sequence against pre-elected semantics."""
    seq = CommitteeSequence.of(committees)
    level_scores, agent_scores = _all_scores(pe, seq)
    if any(len(c) > k for c, k in zip(seq, pe.kvec)):
        return False
    if any(score < x for score, x in zip(level_scores, pe.xvec)):
        return False
    if pe.egalitarian:
        return all(score >= y for score, y in zip(agent_scores, pe.yvec))
    return all(score == y for score, y in zip(agent_scores, pe.yvec))


# -- per-level structure ------------------------------------------------------


def row_support(row) -> dict[int, int]:
    """Support count per candidate nominated in one profile row."""
    support: dict[int, int] = {}
    for c in row:
        if c != 0:
            support[c] = support.get(c, 0) + 1
    return support


def level_support(inst, t: int) -> dict[int, int]:
    """Support count per candidate nominated in level ``t`` (1-based)."""
    _check_level(inst, t)
    return row_support(inst.profile[t - 1])


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


def valid_committees(support: dict[int, int], k: int, x: int) -> list[Committee]:
    """All committees of nominated candidates with size <= k and score >= x,
    in (size, lexicographic) order."""
    nominated = sorted(support)
    if len(nominated) > 30:
        raise EnumerationLimitError(
            f"{len(nominated)} distinct candidates in one level; rename first"
        )
    out: list[Committee] = []
    for size in range(0, min(k, len(nominated)) + 1):
        for combo in itertools.combinations(nominated, size):
            if sum(map(support.__getitem__, combo)) >= x:
                out.append(combo)
    return out


def enumerate_valid_committees(inst, t: int) -> list[Committee]:
    """All valid committees at level ``t``: subsets of the candidates
    nominated there with size <= k and committee score >= x.

    Candidates nominated by nobody are omitted since adding them never
    changes any score.  Raises :class:`EnumerationLimitError` above 30
    distinct nominated candidates (apply :func:`rename_candidates` first).
    """
    return valid_committees(level_support(inst, t), inst.k, inst.x)


def level_fingerprints(inst, t: int) -> dict[tuple[int, ...], Committee]:
    """Distinct agent-inclusion patterns of the valid committees at level ``t``.

    A fingerprint is the n-bit vector with bit ``a`` set iff agent ``a+1``'s
    nominee is in the committee.  Each fingerprint maps to its
    lexicographically smallest witnessing committee.
    """
    row = inst.profile[t - 1]
    out: dict[tuple[int, ...], Committee] = {}
    for committee in enumerate_valid_committees(inst, t):
        chosen = set(committee)
        fp = tuple(1 if (c != 0 and c in chosen) else 0 for c in row)
        if fp not in out or committee < out[fp]:
            out[fp] = committee
    return out


# -- candidate renaming (cuts m down to at most n) ----------------------------


@dataclass(frozen=True)
class CandidateRenaming:
    """Per-level bijections between original and renamed candidate ids."""

    old_to_new: tuple[dict[int, int], ...]
    new_to_old: tuple[dict[int, int], ...]

    def lift(self, seq: CommitteeSequence) -> CommitteeSequence:
        """Map a renamed-instance witness back to original candidate ids."""
        lifted = []
        for t0, committee in enumerate(seq):
            back = self.new_to_old[t0]
            lifted.append(tuple(sorted(back[c] for c in committee)))
        return CommitteeSequence(tuple(lifted))


def rename_candidates(inst: Instance) -> tuple[Instance, CandidateRenaming]:
    """Relabel candidates per level in order of first nomination.

    The result has exactly ``n`` candidates of which each level uses a
    prefix, and, per level, the same nomination coincidence pattern, so the
    verdict is unchanged (committees never interact across levels).  The
    returned renaming lifts witnesses back to original ids.
    """
    old_to_new: list[dict[int, int]] = []
    new_to_old: list[dict[int, int]] = []
    rows: list[tuple[int, ...]] = []
    for row in inst.profile:
        fwd: dict[int, int] = {}
        for c in row:
            if c != 0 and c not in fwd:
                fwd[c] = len(fwd) + 1
        rows.append(tuple(fwd[c] if c != 0 else 0 for c in row))
        old_to_new.append(fwd)
        new_to_old.append({v: k for k, v in fwd.items()})
    renamed = Instance(inst.mode, inst.n, inst.n, inst.tau, inst.k, inst.x, inst.y, tuple(rows))
    return renamed, CandidateRenaming(tuple(old_to_new), tuple(new_to_old))


# -- trivial cases ------------------------------------------------------------


def trivial_solve(inst: Instance) -> SolveResult | None:
    """Dispatch the linear-time special cases; None when none applies.

    Cases, in order: y > tau (no), y = 0, y = tau, and k >= m (egalitarian
    only).  The fired rule is flagged in ``stats`` as ``trivial_<rule>``.
    """
    if inst.y > inst.tau:
        return SolveResult.no({"trivial_y_gt_tau": 1})

    if inst.y == 0:
        if inst.egalitarian:
            # per level the top-k committee is score-maximal
            committees = []
            for t in range(1, inst.tau + 1):
                support = level_support(inst, t)
                best = greedy_committee(support, inst.k)
                if sum(support[c] for c in best) < inst.x:
                    return SolveResult.no({"trivial_y0_egalitarian": 1})
                committees.append(best if inst.x > 0 else ())
            return SolveResult.yes(CommitteeSequence.of(committees), {"trivial_y0_egalitarian": 1})
        # equitable: electing any nominated candidate overshoots its nominator
        if inst.x == 0:
            empty = CommitteeSequence.of([()] * inst.tau)
            return SolveResult.yes(empty, {"trivial_y0_equitable": 1})
        return SolveResult.no({"trivial_y0_equitable": 1})

    if inst.y == inst.tau:
        # every agent must score in every level: elect all nominated candidates
        committees = []
        for t in range(1, inst.tau + 1):
            row = inst.profile[t - 1]
            if any(c == 0 for c in row):
                return SolveResult.no({"trivial_y_eq_tau": 1})
            nominated = sorted(set(row))
            if len(nominated) > inst.k:
                return SolveResult.no({"trivial_y_eq_tau": 1})
            committees.append(tuple(nominated))
        if inst.n < inst.x:
            return SolveResult.no({"trivial_y_eq_tau": 1})
        return SolveResult.yes(CommitteeSequence.of(committees), {"trivial_y_eq_tau": 1})

    if inst.egalitarian and inst.k >= inst.m:
        # electing everything is optimal
        stats = {"trivial_k_ge_m": 1}
        nominate_counts = [0] * inst.n
        for row in inst.profile:
            for a0, c in enumerate(row):
                if c != 0:
                    nominate_counts[a0] += 1
        if any(cnt < inst.y for cnt in nominate_counts):
            return SolveResult.no(stats)
        for t in range(1, inst.tau + 1):
            if sum(1 for c in inst.profile[t - 1] if c != 0) < inst.x:
                return SolveResult.no(stats)
        everyone = tuple(range(1, inst.m + 1))
        return SolveResult.yes(CommitteeSequence.of([everyone] * inst.tau), stats)

    return None


def solve_easy_generalized(inst: Instance, spec: ComparatorSpec) -> SolveResult | None:
    """Extreme-committee solver for the two polynomial comparator triples.

    ``(<=, <=, <=)`` is satisfied by all-empty committees; ``(>=, >=, >=)``
    by electing every candidate everywhere (scores and sizes are monotone),
    which fails only if the full sequence itself fails.  Returns None for
    every other triple.
    """
    if spec == ComparatorSpec(CMP_LE, CMP_LE, CMP_LE):
        empty = CommitteeSequence.of([()] * inst.tau)
        report = verify_generalized(inst, spec, empty)
        stats = {"easy_all_empty": 1}
        return SolveResult.yes(empty, stats) if report.feasible else SolveResult.no(stats)
    if spec == ComparatorSpec(CMP_GE, CMP_GE, CMP_GE):
        stats = {"easy_all_candidates": 1}
        if inst.k > inst.m:
            return SolveResult.no(stats)
        everyone = tuple(range(1, inst.m + 1))
        full = CommitteeSequence.of([everyone] * inst.tau)
        report = verify_generalized(inst, spec, full)
        return SolveResult.yes(full, stats) if report.feasible else SolveResult.no(stats)
    return None
