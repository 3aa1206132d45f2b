#!/usr/bin/env python3
"""The four optimized back-ends against the brute-force oracle.

Every solver is exact; they differ in which parameter keeps them fast:

  branch  small committees and few levels (k, tau)
  dp      few agents (n), any number of levels
  tau2    equitable with exactly two levels, polynomial
  ip      few agents via level types, exports to LP as well

The loop below runs all of them on a batch of random instances and shows
the per-solver counters.
"""

import time

from ecse import brute_solve, random_instance, solve_branch, solve_dp, solve_ip, solve_qcse_tau2, verify

BACKENDS = {"branch": solve_branch, "dp": solve_dp, "ip": solve_ip}

agree = 0
for seed in range(40):
    inst = random_instance(
        seed, n=5, m=4, tau=1 + seed % 4, k=2, x=seed % 3, y=1,
        mode="equitable" if seed % 2 else "egalitarian", empty_prob=0.2,
    )
    truth = brute_solve(inst)
    verdicts = {"brute": truth.verdict}
    for name, solver in BACKENDS.items():
        result = solver(inst)
        verdicts[name] = result.verdict
        if result.witness is not None:
            assert verify(inst, result.witness).feasible
    if inst.mode == "equitable" and inst.tau == 2:
        verdicts["tau2"] = solve_qcse_tau2(inst).verdict
    assert len(set(verdicts.values())) == 1, (seed, verdicts)
    agree += 1
print(f"all back-ends agree on {agree}/40 random instances")

# counters show where the work happens
inst = random_instance(7, n=6, m=5, tau=4, k=3, x=2, y=2, mode="egalitarian", empty_prob=0.1)
print("\ninstance:", {"n": inst.n, "m": inst.m, "tau": inst.tau, "k": inst.k, "x": inst.x, "y": inst.y})
print("brute :", brute_solve(inst).stats)
print("branch:", solve_branch(inst).stats)
print("dp    :", solve_dp(inst).stats)
print("ip    :", solve_ip(inst).stats)

# the score DP scales to many levels as long as agents are few
tall = random_instance(11, n=4, m=4, tau=60, k=2, x=1, y=2, mode="egalitarian", empty_prob=0.15)
started = time.perf_counter()
result = solve_dp(tall)
micros = int((time.perf_counter() - started) * 1e6)
print(f"\n60-level instance via dp: {result.verdict} "
      f"(frontier <= {result.stats['max_frontier']}, {micros} us)")
