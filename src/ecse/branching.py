"""Fingerprint branching: one committee-budget solver for both modes.

A fingerprint of an agent fixes, per level, whether her nominee joins that
level's committee.  Guessing a fingerprint for one unsatisfied agent splits
an instance into at most 2^tau children in which the agent is gone, the
guessed candidates' budgets and thresholds are paid for, and every nomination
of a guessed-level candidate is erased (its fate is decided either way).  The
parent is a yes iff some child is, so depth-first search over fingerprints
decides the instance; depth is bounded by both the agent count and the total
committee budget.  One search loop serves both modes: equitable mode only
adds a prune of overshot agents, and drops satisfied agents as each child is
applied, so the zero-target rule runs once, at the root.

The search builds no sub-instance.  It keeps one mutable :class:`_Search`
state: per level an index from each candidate to its live nominators, the
budgets, thresholds and targets as lists, and which agents are still in.
:func:`_children` applies each child in place and undoes it from a trail
once its subtree is done, as CDCL SAT solvers undo their assignments (Eén
and Sörensson, "An extensible SAT-solver", SAT 2003).  :func:`solve_branch`
searches over what it yields, and :func:`branch_children` copies each child
out as a :class:`~ecse.model.PeInstance`.

Every node whose budgets (and, in equitable mode, targets) are nonnegative
is tested by :func:`counting_bound`, which :meth:`_Search.bound` computes
off the index, before it branches.  The bound refutes by counting alone and,
where no target is left open, decides the node outright; its docstring says
why a refuted node has no yes below it.
"""

from __future__ import annotations

import itertools
from math import comb

from .kernel import rr_pe_qcse_zero_y
from .model import (
    EQUITABLE,
    MAX_NODES,
    CommitteeSequence,
    Instance,
    PeInstance,
    SolveResult,
    _check_agent,
    _top_score,
    dfs,
    greedy_committee,
)


def _score_set(supports, k: int, x: int) -> int:
    """Bitmask of the scores of at least ``x`` that some committee of at
    most ``k`` candidates with these ``supports`` reaches (bit s set iff s
    is reached): a subset sum over the supports, bounded in cardinality."""
    if k < 0:
        return 0
    if k >= len(supports):
        scores = 1
        for w in supports:
            scores |= scores << w
    else:
        # bit j * stride + s: some j candidates score s; a candidate of
        # support w moves (j, s) to (j + 1, s + w), and keep drops j > k
        stride = sum(supports) + 1
        keep = (1 << (k + 1) * stride) - 1
        pairs = 1
        for w in supports:
            pairs |= (pairs << stride + w) & keep
        low = (1 << stride) - 1
        scores = 0
        while pairs:
            scores |= pairs & low
            pairs >>= stride
    return scores >> x << x if x > 0 else scores


def counting_bound(pe: Instance | PeInstance) -> bool:
    """A necessary condition for a yes, by counting alone: False only when
    no committee sequence meets the budgets, thresholds and targets.

    Only the open agents (positive target) are counted toward the targets.
    No committee is enumerated, so unlike
    :func:`~ecse.model.valid_committees` the check never raises
    :class:`~ecse.model.EnumerationLimitError`.

    * Equitable mode: a feasible sequence satisfies no agent with target
      zero or less, so each level's committee satisfies exactly as many open
      agents as its score, and the level scores sum to the open targets'
      sum.  That sum must therefore lie in the sumset of the per-level score
      sets, each a subset sum of open supports under the level's budget and
      threshold (Bellman's subset-sum recurrence, on bitmasks).
    * Egalitarian mode: every agent counts toward the thresholds, so each
      level's ``kvec[t]`` best-supported candidates must reach ``xvec[t]``;
      and the open targets are met at most as often as the levels' best
      committees, counted over open agents, satisfy open agents.

    So a search that prunes where it fails keeps every yes (the bounding
    step of Land and Doig, 1960).  Where no target is positive, and in
    equitable mode none is negative, it is also sufficient: the levels'
    greedy committees are then a witness in egalitarian mode, and in
    equitable mode, where electing a nominee overshoots its nominator, the
    empty committees are one iff no threshold is positive.
    """
    yvec = pe.yvec
    return _Search(pe).bound(sum(y for y in yvec if y > 0), min(yvec, default=1) > 0)


class _Search:
    """The one mutable node of the fingerprint search.

    ``nominators[t0]`` maps each candidate still nominated at level ``t0``
    to the list of its nominators.  Erasing a candidate pops its entry, and
    no entry ever loses a single agent, so an agent's nomination at a level
    is live iff its nominee in ``profile`` still has an entry there.
    ``slots[a0]`` lists agent ``a0``'s nominations as ``(t0, nominators[t0],
    candidate)``, and ``alive`` marks the agents not yet struck.  ``trail``
    holds one frame per applied child, ``(agent, chosen levels, struck
    agents, popped entries)``, so along the current path it is the list of
    guesses made.
    """

    def __init__(self, pe: Instance | PeInstance):
        self.mode, self.m, self.profile = pe.mode, pe.m, pe.profile
        self.equitable = pe.mode == EQUITABLE
        self.kvec, self.xvec, self.yvec = list(pe.kvec), list(pe.xvec), list(pe.yvec)
        self.alive = [True] * pe.n
        self.nominators: list[dict[int, list[int]]] = []
        self.slots: list[list[tuple[int, dict, int]]] = [[] for _ in range(pe.n)]
        for t0, row in enumerate(pe.profile):
            level: dict[int, list[int]] = {}
            for a0, c in enumerate(row):
                if c:
                    level.setdefault(c, []).append(a0)
                    self.slots[a0].append((t0, level, c))
            self.nominators.append(level)
        self.trail: list[tuple] = []

    def levels(self, a0: int) -> list[int]:
        """The levels at which agent ``a0`` still nominates a candidate."""
        return [t0 for t0, level, c in self.slots[a0] if c in level]

    def apply(self, a0: int, chosen: tuple[int, ...]) -> None:
        """Commit agent ``a0`` to electing its nominees at exactly the
        ``chosen`` levels, which must be live.

        Each chosen level pays one unit of budget, and its nominee's
        nominators each pay one unit of threshold and of their own target.
        Agent ``a0`` is struck; in equitable mode so is every agent whose
        target the payment brought to zero.  That equals applying the
        zero-target rule to the child with only ``a0`` struck: a satisfied
        agent's nominee at a level is either ``a0``'s, which is erased
        anyway, or forbidden by that agent.  The rule changes no bound, so
        the child is its own fixpoint, and an overshot agent (negative
        target) is kept for the search to prune.
        """
        yvec, paid = self.yvec, []
        for t0 in chosen:
            voters = self.nominators[t0][self.profile[t0][a0]]
            self.kvec[t0] -= 1
            self.xvec[t0] -= len(voters)
            for b0 in voters:
                yvec[b0] -= 1
            paid.append(voters)
        struck = (a0,)
        if self.equitable:
            struck = {a0}.union(b0 for voters in paid for b0 in voters if yvec[b0] == 0)
        popped = []
        for b0 in struck:
            self.alive[b0] = False
            for _, level, c in self.slots[b0]:
                voters = level.pop(c, None)
                if voters:
                    popped.append((level, c, voters))
        self.trail.append((a0, chosen, struck, popped))

    def undo(self) -> None:
        """Take back the latest :meth:`apply`."""
        a0, chosen, struck, popped = self.trail.pop()
        for level, c, voters in popped:
            level[c] = voters
        for b0 in struck:
            self.alive[b0] = True
        for t0 in chosen:
            voters = self.nominators[t0][self.profile[t0][a0]]
            self.kvec[t0] += 1
            self.xvec[t0] += len(voters)
            for b0 in voters:
                self.yvec[b0] += 1

    def bound(self, need: int, all_open: bool) -> bool:
        """:func:`counting_bound` of the node, given the sum ``need`` of its
        positive targets and whether every live agent's target is positive.

        Per level, ``supports`` are the lengths of the index entries, counted
        over all live agents, and ``opens`` count the open agents only.
        """
        yvec, kvec, xvec = self.yvec, self.kvec, self.xvec
        supports = [list(map(len, level.values())) for level in self.nominators]
        opens = supports if all_open else (
            [s for s in (sum(yvec[b0] > 0 for b0 in voters) for voters in level.values()) if s]
            for level in self.nominators
        )
        if self.equitable:
            mask = (2 << need) - 1
            reach = 1  # bit s: the levels so far can satisfy s open agents in all
            for level, k, x in zip(opens, kvec, xvec):
                scores = _score_set(level, k, x) & mask
                total = 0
                while scores:
                    low = scores & -scores  # 2**s for the lowest score s left
                    total |= reach * low
                    scores ^= low
                reach = total & mask
                if not reach:
                    return False
            return bool(reach >> need & 1)
        for level, k, x in zip(supports, kvec, xvec):
            if k < 0 or x > 0 and _top_score(level, k) < x:
                return False
        best = 0
        for level, k in zip(opens, kvec):
            if best >= need:
                break
            best += _top_score(level, k)
        return need <= best

    def snapshot(self) -> PeInstance:
        """The node as a sub-instance of its live agents."""
        keep = [a0 for a0, alive in enumerate(self.alive) if alive]
        rows = tuple(
            tuple(c if c in level else 0 for c in (row[a0] for a0 in keep))
            for row, level in zip(self.profile, self.nominators)
        )
        targets = tuple(self.yvec[a0] for a0 in keep)
        kvec, xvec = tuple(self.kvec), tuple(self.xvec)
        return PeInstance(self.mode, len(keep), self.m, len(rows), kvec, xvec, targets, rows)


def _children(node: _Search, a0: int):
    """Apply each eligible fingerprint of open agent ``a0`` to ``node``,
    yield the node, and undo the fingerprint again.

    Fingerprints are the sets of live levels that elect ``a0``'s nominee,
    in (popcount, position) order: at least ``y`` levels in egalitarian
    mode and exactly ``y`` in equitable mode, for ``a0``'s target ``y``.
    """
    levels, y = node.levels(a0), node.yvec[a0]
    for size in (y,) if node.equitable else range(y, len(levels) + 1):
        for chosen in itertools.combinations(levels, size):
            node.apply(a0, chosen)
            yield node
            node.undo()


def branch_children(pe: PeInstance, a: int) -> list[PeInstance]:
    """One child instance per eligible fingerprint of agent ``a``.

    The parent is a yes iff some child is.  Equitable children come without
    satisfied agents (the zero-target rule is already applied).  Requires a
    positive remaining target and at least one eligible fingerprint.
    """
    _check_agent(pe, a)
    a0 = a - 1
    if pe.yvec[a0] <= 0:
        raise ValueError(f"agent {a} has no positive target to branch on")
    node = _Search(pe)
    children = [node.snapshot() for _ in _children(node, a0)]
    if not children:
        raise ValueError(f"agent {a} admits no eligible fingerprint")
    # the search's root has no satisfied agent, but pe may have some
    return [rr_pe_qcse_zero_y(child) for child in children] if node.equitable else children


def _pick_agent(node: _Search) -> int | None:
    """Open agent with the fewest eligible fingerprints (ties: lowest index);
    None at the first open agent without any."""
    best = best_count = None
    for a0, (alive, y) in enumerate(zip(node.alive, node.yvec)):
        if alive and y > 0:
            d = len(node.levels(a0))
            # egalitarian: subsets of at least y of the d levels
            count = comb(d, y) if node.equitable else (1 << d) - sum(comb(d, s) for s in range(y))
            if count == 0:
                return None
            if best is None or count < best_count:
                best, best_count = a0, count
    return best


def solve_branch(inst: Instance | PeInstance, max_nodes: int = MAX_NODES) -> SolveResult:
    """Fingerprint DFS for both modes and both instance types (a plain
    instance is searched through its constant vectors); the witness is
    rebuilt along the accepting path.

    Equitable mode adds two steps: an overshot agent (negative target) fails
    the node, and satisfied agents are removed eagerly, their candidates
    becoming forbidden; the zero-target rule does so once for the root, and
    each child is applied without them.  Every node with nonnegative budgets
    must pass the counting bound; one that passes without an open target
    accepts, and its levels take their greedy score-maximal committees.  A
    refuted node counts in ``nodes_expanded``, and in ``bound_prunes`` if
    some target is still open.  The search runs through
    :func:`ecse.model.dfs`, which raises :class:`~ecse.model.UndecidedError`
    after ``max_nodes`` nodes.
    """
    equitable = inst.mode == EQUITABLE
    stats = {
        "nodes_expanded": 0, "fingerprints_tried": 0, "max_depth": 0, "max_children": 0,
        "bound_prunes": 0,
    }

    def expand(node: _Search):
        stats["nodes_expanded"] += 1
        live = list(itertools.compress(node.yvec, node.alive))
        low = min(live, default=1)
        if min(node.kvec) < 0 or (equitable and low < 0):
            return False
        # every surviving depth step burned committee budget and one agent
        stats["max_depth"] = max(stats["max_depth"], len(node.trail))
        need = sum(y for y in live if y > 0)
        if not node.bound(need, low > 0):
            stats["bound_prunes"] += need > 0
            return False
        if not need:
            return True
        a0 = _pick_agent(node)
        return a0 is not None and counted(_children(node, a0))

    def counted(children):
        for count, child in enumerate(children, 1):
            stats["fingerprints_tried"] += 1
            stats["max_children"] = max(stats["max_children"], count)
            yield child

    root = _Search(rr_pe_qcse_zero_y(inst) if equitable else inst)
    if not dfs(root, expand, max_nodes):
        return SolveResult.no(stats)
    # the accepting leaf is still applied, and its trail is the path to it
    committees = [
        set(greedy_committee({c: len(v) for c, v in level.items()}, k)) if x > 0 else set()
        for level, k, x in zip(root.nominators, root.kvec, root.xvec)
    ]
    for a0, chosen, _, _ in root.trail:
        for t0 in chosen:
            committees[t0].add(root.profile[t0][a0])
    return SolveResult.yes(CommitteeSequence.of(committees), stats)
