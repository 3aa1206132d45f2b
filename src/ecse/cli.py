"""Command-line front end.

Subcommands: ``solve``, ``verify``, ``kernelize``, ``generate``,
``export-ip``, ``bench``.  Exit codes: 0 on success, 2 for usage or parse
errors, 3 when a guard or search budget refused to decide; with
``--exit-verdict``, a successful ``solve`` exits 0 on yes and 1 on no.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import formats
from .branching import solve_branch, solve_pe_gcse_branch, solve_pe_qcse_branch
from .generators import (
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
from .ip import build_ip, export_lp, solve_ip
from .kernel import kernelize_ny
from .model import (
    EGALITARIAN,
    EQUITABLE,
    GuardExceeded,
    Instance,
    PeInstance,
    SolveResult,
    rename_candidates,
    trivial_solve,
    verify,
)
from .oracle import OracleLimits, brute_solve, brute_solve_pe
from .score_dp import solve_dp
from .tau2 import solve_qcse_tau2

ALGORITHMS = ("auto", "brute", "branch", "dp", "tau2", "ip")

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


class UsageError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def solve_with_algo(inst, algo: str, limits: OracleLimits | None = None, max_nodes: int = 2_000_000):
    """Dispatch one back-end; returns (result, algorithm actually used)."""
    if isinstance(inst, PeInstance):
        if algo in ("auto", "branch"):
            solver = solve_pe_gcse_branch if inst.egalitarian else solve_pe_qcse_branch
            return solver(inst), "branch"
        if algo == "brute":
            return brute_solve_pe(inst, limits), "brute"
        raise UsageError(f"algorithm {algo!r} does not apply to pre-elected instances")
    if algo == "auto":
        return _solve_auto(inst, max_nodes)
    if algo == "brute":
        return brute_solve(inst, limits), "brute"
    if algo == "branch":
        return solve_branch(inst), "branch"
    if algo == "dp":
        return solve_dp(inst), "dp"
    if algo == "tau2":
        if inst.mode != EQUITABLE or inst.tau != 2:
            raise UsageError("tau2 applies only to equitable two-level instances")
        return solve_qcse_tau2(inst), "tau2"
    if algo == "ip":
        return solve_ip(inst, max_nodes=max_nodes), "ip"
    raise UsageError(f"unknown algorithm {algo!r}")


def _solve_auto(inst: Instance, max_nodes):
    """Routing: trivial rules, then the polynomial two-level pipeline, then
    the score DP for few agents, branching for small committee budgets, and
    otherwise the integer program, whose search budget is ``max_nodes``."""
    result = trivial_solve(inst)
    if result is not None:
        return result, "trivial"
    if inst.mode == EQUITABLE and inst.tau == 2:
        return solve_qcse_tau2(inst), "tau2"
    if inst.n <= 12:
        return solve_dp(inst), "dp"
    if inst.k * inst.tau <= 24:
        return solve_branch(inst), "branch"
    return solve_ip(inst, max_nodes=max_nodes), "ip"


def _result_payload(result: SolveResult, algo: str) -> dict:
    return {
        "verdict": result.verdict,
        "algo": algo,
        "committees": [list(c) for c in result.witness] if result.witness else None,
        "stats": result.stats,
    }


def cmd_solve(args) -> int:
    inst = formats.parse_instance(_read(args.instance))
    result, algo = solve_with_algo(inst, args.algo, max_nodes=args.max_nodes)
    if args.json:
        print(json.dumps(_result_payload(result, algo), sort_keys=True))
    else:
        print(result.verdict.upper())
        if result.witness is not None:
            sys.stdout.write(formats.serialize_solution(result.witness))
    if args.out and result.witness is not None:
        Path(args.out).write_text(formats.serialize_solution(result.witness), encoding="utf-8")
    if args.exit_verdict:
        return EXIT_OK if result.verdict == "yes" else EXIT_NO
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = formats.parse_instance(_read(args.instance))
    if isinstance(inst, PeInstance):
        raise UsageError("verify expects a plain (non pre-elected) instance")
    seq = formats.parse_solution(_read(args.solution))
    report = verify(inst, seq)
    if args.json:
        payload = {
            "feasible": report.feasible,
            "level_scores": list(report.level_scores),
            "agent_scores": list(report.agent_scores),
            "first_violation": (
                None
                if report.first_violation is None
                else {"kind": report.first_violation.kind, "index": report.first_violation.index}
            ),
        }
        print(json.dumps(payload, sort_keys=True))
    elif report.feasible:
        print("FEASIBLE")
    else:
        tag = "a" if report.first_violation.kind == "agent-score" else "t"
        print(f"INFEASIBLE {report.first_violation.kind} {tag}={report.first_violation.index}")
    return EXIT_OK


def cmd_kernelize(args) -> int:
    inst = formats.parse_instance(_read(args.instance))
    if not isinstance(inst, Instance):
        raise UsageError("kernelize expects a plain instance")
    result = kernelize_ny(inst)
    if args.json:
        payload = {
            "resolved": result.resolved,
            "verdict": result.verdict,
            "kept_levels": list(result.kept_levels),
            "deleted_levels": list(result.deleted_levels),
            "rules": [list(entry) for entry in result.rule_log],
        }
        print(json.dumps(payload, sort_keys=True))
        if result.instance is not None and args.out:
            _emit(formats.serialize_instance(result.instance), args.out)
        return EXIT_OK
    if result.resolved:
        print(f"RESOLVED {result.verdict.upper()}")
        if result.witness is not None:
            sys.stdout.write(formats.serialize_solution(result.witness))
    else:
        reduced = result.instance
        print(f"REDUCED tau={reduced.tau} m={reduced.m} deleted={len(result.deleted_levels)}")
        _emit(formats.serialize_instance(reduced), args.out)
    return EXIT_OK


def cmd_export_ip(args) -> int:
    inst = formats.parse_instance(_read(args.instance))
    if not isinstance(inst, Instance):
        raise UsageError("export-ip expects a plain instance")
    renamed, _ = rename_candidates(inst)
    _emit(export_lp(build_ip(renamed)), args.out)
    return EXIT_OK


def cmd_generate(args) -> int:
    kind = args.source
    mode = EGALITARIAN if args.mode == "gcse" else EQUITABLE
    if kind == "random":
        inst = random_instance(
            args.seed, args.n, args.m, args.tau, args.k, args.x, args.y, mode, args.empty_prob
        )
    elif kind == "cbvc":
        graph, k = parse_cbvc(_read(_one_input(args)))
        inst = gen_from_cbvc(graph, k)
    elif kind in ("sat", "3sat", "x13sat", "monotone-x13sat", "nmx"):
        cnf = parse_dimacs(_read(_one_input(args)))
        if kind == "sat":
            inst = gen_gcse_sat(cnf)
        elif kind == "3sat":
            inst = gen_gcse_3sat(cnf)
        elif kind == "x13sat":
            inst = gen_qcse_x13sat(cnf)
        elif kind == "monotone-x13sat":
            inst = gen_qcse_monotone_x13sat(cnf)
        else:
            inst = gen_nmx(cnf, mode)
    elif kind == "3part":
        values = [int(tok) for tok in _read(_one_input(args)).split()]
        inst = gen_3part(values, mode)
    elif kind == "or":
        if not args.inputs:
            raise UsageError("or-composition needs input instance files")
        parts = []
        for path in args.inputs:
            part = formats.parse_instance(_read(path))
            if not isinstance(part, Instance):
                raise UsageError("or-composition takes plain instances")
            parts.append(part)
        inst = or_compose(parts)
    else:
        raise UsageError(f"unknown generator {kind!r}")
    _emit(formats.serialize_instance(inst), args.out)
    return EXIT_OK


def _one_input(args) -> str:
    if len(args.inputs) != 1:
        raise UsageError(f"generator {args.source!r} takes exactly one input file")
    return args.inputs[0]


def cmd_bench(args) -> int:
    paths = sorted(Path(args.directory).glob("*.ecse"))
    if not paths:
        raise UsageError(f"no .ecse instances under {args.directory}")
    algos = args.algo or ["auto"]
    rows = []
    counter_keys: set[str] = set()
    for path in paths:
        inst = formats.parse_instance(path.read_text(encoding="utf-8"))
        for algo in algos:
            started = time.perf_counter()
            try:
                result, used = solve_with_algo(inst, algo, None, args.max_nodes)
                verdict = result.verdict
                stats = dict(result.stats)
            except GuardExceeded:
                verdict, stats = "undecided", {}
            micros = stats.pop("elapsed_micros", int((time.perf_counter() - started) * 1e6))
            counter_keys.update(stats)
            rows.append((path.name, algo, verdict, micros, stats))
    ordered = sorted(counter_keys)
    lines = [",".join(["instance", "algo", "verdict", "micros", *ordered])]
    for name, algo, verdict, micros, stats in sorted(rows, key=lambda r: (r[0], r[1])):
        cells = [name, algo, verdict, str(micros)]
        cells.extend(str(stats[key]) if key in stats else "" for key in ordered)
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecse", description="egalitarian/equitable committee-sequence solvers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an instance file")
    solve.add_argument("instance")
    solve.add_argument("--algo", choices=ALGORITHMS, default="auto")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--exit-verdict", action="store_true")
    solve.add_argument("--max-nodes", type=int, default=2_000_000)
    solve.add_argument("--out")
    solve.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="check a solution file against an instance")
    ver.add_argument("instance")
    ver.add_argument("solution")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)

    kern = sub.add_parser("kernelize", help="apply the egalitarian level kernel")
    kern.add_argument("instance")
    kern.add_argument("--json", action="store_true")
    kern.add_argument("--out")
    kern.set_defaults(func=cmd_kernelize)

    gen = sub.add_parser("generate", help="build instances from source problems")
    gen.add_argument("--from", dest="source", required=True,
                     choices=["cbvc", "sat", "3sat", "x13sat", "monotone-x13sat",
                              "nmx", "3part", "or", "random"])
    gen.add_argument("inputs", nargs="*")
    gen.add_argument("--mode", choices=["gcse", "qcse"], default="gcse")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=6)
    gen.add_argument("--m", type=int, default=4)
    gen.add_argument("--tau", type=int, default=3)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--x", type=int, default=1)
    gen.add_argument("--y", type=int, default=1)
    gen.add_argument("--empty-prob", type=float, default=0.0)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    exp = sub.add_parser("export-ip", help="write the type-grouped program in LP format")
    exp.add_argument("instance")
    exp.add_argument("--out")
    exp.set_defaults(func=cmd_export_ip)

    bench = sub.add_parser("bench", help="run solvers over a directory of instances")
    bench.add_argument("directory")
    bench.add_argument("--algo", action="append", choices=ALGORITHMS)
    bench.add_argument("--max-nodes", type=int, default=2_000_000)
    bench.add_argument("--out")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (UsageError, formats.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
