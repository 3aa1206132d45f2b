#!/usr/bin/env python3
"""Inside the polynomial two-level equitable pipeline.

Target one, two levels: an agent nominating in a single level forces that
candidate; after the rules, agents are edges of a bipartite graph between
level-1 and level-2 candidates, and solutions are exactly the independent
vertex covers that take one full side per connected component, within
budgets, with degree sums meeting the thresholds.
"""

import random
import time

from ecse import solve_qcse_tau2, verify
from ecse.model import Instance
from ecse.tau2 import apply_x2_rules, build_cbivcs, solve_cbivcs, x2_from_instance

# small instance: watch the rules and the graph
inst = Instance(
    "equitable", 5, 5, 2, 2, 1, 1,
    (
        (1, 1, 3, 4, 4),
        (0, 2, 2, 5, 5),
    ),
)
x2 = apply_x2_rules(x2_from_instance(inst))
print("forced at level 1:", x2.forced1, "| forced at level 2:", x2.forced2)
print("surviving agents:", x2.n, "with rows", x2.row1, "/", x2.row2)

components = build_cbivcs(x2)
for i, comp in enumerate(components, start=1):
    print(f"component {i}: level-1 side {comp.left}, level-2 side {comp.right}, "
          f"{comp.edge_count} agents")
committees = solve_cbivcs(x2, components)
print("committees (forced plus one full side per component):",
      [sorted(c) for c in committees] if committees else None)

result = solve_qcse_tau2(inst)
print("verdict:", result.verdict, "| committees:", result.witness.committees)
assert verify(inst, result.witness).feasible

# the pipeline is polynomial: ten thousand agents in well under a second
rng = random.Random(5)
groups = 40
row1 = [4 * (a % groups) + rng.randint(1, 2) for a in range(10_000)]
row2 = [4 * (a % groups) + rng.randint(3, 4) for a in range(10_000)]
big = Instance("equitable", 10_000, 4 * groups, 2, 60, 4600, 1, (tuple(row1), tuple(row2)))
started = time.perf_counter()
result = solve_qcse_tau2(big)
print(f"\nn=10000: {result.verdict} in {time.perf_counter() - started:.2f}s "
      f"({result.stats['components']} components)")
if result.witness is not None:
    assert verify(big, result.witness).feasible
