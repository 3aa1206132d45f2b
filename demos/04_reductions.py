#!/usr/bin/env python3
"""Hard problems as elections: generators with checkable witness maps.

Each generator embeds a classic problem so that the source instance is
solvable iff the generated election is.  The maps run in both directions,
so solutions transport too.
"""

from ecse import (
    brute_solve,
    gen_3part,
    gen_from_cbvc,
    gen_gcse_sat,
    or_compose,
    parse_dimacs,
    verify,
)
from ecse.generators import BipartiteGraph, sat_assignment_to_sequence, sat_sequence_to_assignment
from ecse.sources import sat_satisfiable, three_partition_exists

# SAT with two candidates: level = variable, agent = clause, truth = which
# of the two candidates the level elects
dimacs = """\
c (x1 | ~x2) & (~x1 | x2) & (x2 | x3)
p cnf 3 3
1 -2 0
-1 2 0
2 3 0
"""
cnf = parse_dimacs(dimacs)
inst = gen_gcse_sat(cnf)
print(f"SAT with {cnf.num_vars} vars / {len(cnf.clauses)} clauses "
      f"-> election with n={inst.n}, m={inst.m}, tau={inst.tau}, k={inst.k}")

result = brute_solve(inst)
print("satisfiable:", sat_satisfiable(cnf), "| election verdict:", result.verdict)
assignment = sat_sequence_to_assignment(cnf, result.witness)
print("assignment read off the witness:", assignment)
seq = sat_assignment_to_sequence(cnf, assignment)
print("assignment mapped back to committees is feasible:", verify(inst, seq).feasible)

# bipartite vertex cover with per-side budgets becomes a two-level election
graph = BipartiteGraph(2, 3, ((1, 1), (1, 2), (2, 2), (2, 3)))
cover_inst = gen_from_cbvc(graph, k=2)
print("\nCBVC on a 2x3 graph, budget 2 per side ->", brute_solve(cover_inst).verdict)

# 3-Partition: identical levels, committees of three, scores must hit T exactly
values = [1, 1, 4, 1, 1, 4]
part = gen_3part(values, "equitable")
from ecse import OracleLimits
limits = OracleLimits(max_n=14, max_m=8, max_tau=6)
print(f"\n3-Partition of {values}: {three_partition_exists(values)} "
      f"| election verdict: {brute_solve(part, limits).verdict}")

# OR-composition: one instance per input, plus selector levels that excuse
# every input except the one that must win
unit_yes = gen_gcse_sat(parse_dimacs("p cnf 1 1\n1 0\n"))
unit_no = gen_gcse_sat(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n"))
for picks in ([unit_no, unit_no], [unit_no, unit_yes]):
    composed = or_compose(picks)
    print(f"OR of {[brute_solve(u).verdict for u in picks]} -> {brute_solve(composed).verdict} "
          f"(tau {picks[0].tau} -> {composed.tau})")
