"""Exact solvers for egalitarian and equitable committee-sequence elections.

The package decides whether a sequence of per-level committees exists that
collects enough nominations in every level and satisfies every agent at
least (egalitarian) or exactly (equitable) a target number of times.  It
ships a verification core, preprocessing/kernelization, four optimized
back-ends (fingerprint branching, score-vector DP, a two-level polynomial
pipeline, a type-grouped integer program), brute-force oracles, and
instance generators derived from classic hard problems.
"""

from .model import (
    EGALITARIAN,
    EQUITABLE,
    EGALITARIAN_SPEC,
    EQUITABLE_SPEC,
    CommitteeSequence,
    ComparatorSpec,
    EnumerationLimitError,
    GuardExceeded,
    Instance,
    PeInstance,
    SolveResult,
    VerificationReport,
    Violation,
    agent_score,
    committee_score,
    enumerate_valid_committees,
    level_fingerprints,
    rename_candidates,
    solve_easy_generalized,
    trivial_solve,
    verify,
    verify_generalized,
)
from .formats import (
    ParseError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .oracle import OracleLimitError, OracleLimits, brute_solve, brute_solve_generalized
from .kernel import CriticalityTable, KernelResult, compute_criticality, kernelize_ny, rr_pe_qcse_zero_y
from .branching import branch_children, counting_bound, lift, solve_branch
from .score_dp import DpGuardError, solve_dp
from .tau2 import (
    CbivcsInstance,
    X2Instance,
    build_cbivcs,
    rr_x2_force_single,
    rr_x2_no_nomination,
    solve_cbivcs,
    solve_qcse_tau2,
)
from .ip import IpModel, UndecidedError, build_ip, export_lp, lift_ip_witness, solve_ip, solve_ip_naive
from .generators import (
    BipartiteGraph,
    CnfFormula,
    gen_3part,
    gen_from_cbvc,
    gen_gcse_3sat,
    gen_gcse_sat,
    gen_nmx,
    gen_qcse_monotone_x13sat,
    gen_qcse_x13sat,
    or_compose,
    parse_cbvc,
    parse_dimacs,
    random_instance,
)

__version__ = "0.1.0"
