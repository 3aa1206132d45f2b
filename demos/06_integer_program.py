#!/usr/bin/env python3
"""The type-grouped integer program and its LP export.

Levels with identical nomination rows are interchangeable, so variables
count how many levels of each *type* elect each valid committee.  The model
is solved exactly by budgeted search here, and can be written in LP text
format for any external MILP solver.
"""

from ecse import build_ip, export_lp, rename_candidates, solve_ip
from ecse.ip import lift_ip_witness, solve_ip_naive
from ecse.model import Instance, verify

# three levels, two of them identical
inst = Instance(
    "egalitarian", 4, 4, 3, 2, 2, 2,
    (
        (1, 1, 2, 3),
        (1, 1, 2, 3),
        (4, 2, 2, 1),
    ),
)
renamed, renaming = rename_candidates(inst)
model = build_ip(renamed)
print(f"{inst.tau} levels fold into {model.num_types} types "
      f"(counts {tuple(map(len, model.type_levels))}), {model.num_variables} variables")

assignment = solve_ip_naive(model)
print("assignment:", assignment)
witness = renaming.lift(lift_ip_witness(model, assignment))
print("lifted committees:", witness.committees)
assert verify(inst, witness).feasible

print("\nLP export:\n")
print(export_lp(model))

result = solve_ip(inst)
print("solve_ip:", result.verdict, result.stats)
