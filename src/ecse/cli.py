"""Command-line front end.

Subcommands: ``solve``, ``verify``, ``kernelize``, ``generate``,
``export-ip``, ``bench``.  Exit codes: 0 on success, 2 for input errors (bad
arguments, unreadable, non-UTF-8, unwritable or malformed files, unsuitable
instances), 3 when a guard or a search node budget refused to decide, 4 on
any other exception (its traceback goes to stderr; never a verdict); with
``--exit-verdict``, a successful ``solve`` exits 0 on yes and 1 on no.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from functools import partial
from pathlib import Path

from . import formats
from .branching import solve_branch
from .generators import (
    gen_3part,
    gen_from_cbvc,
    gen_gcse_3sat,
    gen_gcse_sat,
    gen_nmx,
    gen_qcse_monotone_x13sat,
    gen_qcse_x13sat,
    or_compose,
    parse_3part,
    parse_cbvc,
    parse_dimacs,
    random_instance,
)
from .ip import build_ip, export_lp, solve_ip
from .kernel import kernelize_ny
from .model import (
    EGALITARIAN,
    EQUITABLE,
    MAX_NODES,
    GuardExceeded,
    Instance,
    PeInstance,
    rename_candidates,
    trivial_solve,
    verify,
)
from .oracle import brute_solve
from .score_dp import AUTO_BUDGET, MAX_AGENTS, solve_dp
from .tau2 import solve_qcse_tau2

ALGORITHMS = ("auto", "brute", "branch", "dp", "tau2", "ip")

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_CRASH = 4


class UsageError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # drops a byte order mark
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _plain_instance(path: str, command: str) -> Instance:
    inst = formats.parse_instance(_read(path))
    if isinstance(inst, PeInstance):
        raise UsageError(f"{command} takes a plain instance, {path} is pre-elected")
    return inst


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _node_count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected a node count of 0 or more, got {count}")
    return count


def solve_with_algo(inst, algo: str, max_nodes: int = MAX_NODES, route: list | None = None):
    """Dispatch one back-end; returns (result, algorithm actually used).

    A pre-elected instance takes only ``brute`` and ``branch``, which
    ``auto`` means for it.  ``route``, if given, collects the attempts
    ``auto`` abandoned (see :func:`_solve_auto`)."""
    if isinstance(inst, PeInstance):
        if algo not in ("auto", "branch", "brute"):
            raise UsageError(f"algorithm {algo!r} does not apply to pre-elected instances")
        algo = "branch" if algo == "auto" else algo
    if algo == "auto":
        return _solve_auto(inst, max_nodes, route)
    if algo == "brute":
        return brute_solve(inst), "brute"
    if algo == "branch":
        return solve_branch(inst, max_nodes=max_nodes), "branch"
    if algo == "dp":
        return solve_dp(inst), "dp"
    if algo == "tau2":
        if inst.mode != EQUITABLE or inst.tau != 2:
            raise UsageError("tau2 applies only to equitable two-level instances")
        return solve_qcse_tau2(inst), "tau2"
    if algo == "ip":
        return solve_ip(inst, max_nodes=max_nodes), "ip"
    raise UsageError(f"unknown algorithm {algo!r}")


def _solve_auto(inst: Instance, max_nodes, route: list | None = None):
    """Routing, in one order: trivial rules, the polynomial two-level
    pipeline, branching's root node alone, the score DP (at most
    ``MAX_AGENTS`` agents) under the small work budget ``AUTO_BUDGET``,
    branching for small committee budgets (``k*tau <= 24``), and finally the
    integer program.  The root's counting bound refutes many no-instances
    before any search; a zero ``max_nodes`` refuses the root like any
    search, and a root that does not decide is not listed in ``route``.
    Branching and the integer program each get a search budget of
    ``max_nodes``.  A search that refuses (:class:`GuardExceeded`) hands the
    instance on to the next one that applies, and its refusal is appended to
    ``route``, if given, as ``{"algo", "refused"}``; only the integer
    program's refusal is final."""
    result = trivial_solve(inst)
    if result is not None:
        return result, "trivial"
    if inst.mode == EQUITABLE and inst.tau == 2:
        return solve_qcse_tau2(inst), "tau2"
    try:
        return solve_branch(inst, max_nodes=min(max_nodes, 1)), "branch"
    except GuardExceeded:
        pass
    attempts = []
    if inst.n <= MAX_AGENTS:
        attempts.append(("dp", partial(solve_dp, budget=AUTO_BUDGET)))
    if inst.k * inst.tau <= 24:
        attempts.append(("branch", partial(solve_branch, max_nodes=max_nodes)))
    for algo, solver in attempts:
        try:
            return solver(inst), algo
        except GuardExceeded as exc:
            if route is not None:
                route.append({"algo": algo, "refused": str(exc)})
    return solve_ip(inst, max_nodes=max_nodes), "ip"


def cmd_solve(args) -> int:
    inst = formats.parse_instance(_read(args.instance))
    route: list[dict] = []
    started = time.perf_counter()
    result, algo = solve_with_algo(inst, args.algo, max_nodes=args.max_nodes, route=route)
    micros = int((time.perf_counter() - started) * 1e6)
    if args.json:
        payload = {
            "verdict": result.verdict,
            "algo": algo,
            "route": route,
            "committees": [list(c) for c in result.witness] if result.witness else None,
            "stats": {**result.stats, "elapsed_micros": micros},
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.verdict.upper())
        if result.witness is not None:
            sys.stdout.write(formats.serialize_solution(result.witness))
    if args.out and result.witness is not None:
        _emit(formats.serialize_solution(result.witness), args.out)
    if args.exit_verdict:
        return EXIT_OK if result.verdict == "yes" else EXIT_NO
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = formats.parse_instance(_read(args.instance))
    seq = formats.parse_solution(_read(args.solution))
    if len(seq) != inst.tau:
        raise UsageError(f"solution has {len(seq)} committees, the instance has tau={inst.tau}")
    if any(committee and committee[-1] > inst.m for committee in seq):
        raise UsageError(f"solution elects a candidate above the instance's m={inst.m}")
    report = verify(inst, seq)
    if args.json:
        print(json.dumps({**dataclasses.asdict(report), "feasible": report.feasible}, sort_keys=True))
    elif report.feasible:
        print("FEASIBLE")
    else:
        tag = "a" if report.first_violation.kind == "agent-score" else "t"
        print(f"INFEASIBLE {report.first_violation.kind} {tag}={report.first_violation.index}")
    return EXIT_OK


def cmd_kernelize(args) -> int:
    inst = _plain_instance(args.instance, "kernelize")
    if inst.mode != EGALITARIAN:
        raise UsageError("kernelize expects an egalitarian (gcse) instance")
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
    inst = _plain_instance(args.instance, "export-ip")
    renamed, _ = rename_candidates(inst)
    _emit(export_lp(build_ip(renamed)), args.out)
    return EXIT_OK


#: ``generate --from`` kinds that read one input file, each to a builder of
#: the instance from that file's text and the mode, which only ``nmx`` and
#: ``3part`` read (``--mode``, egalitarian when absent, as for ``random``);
#: ``or`` and ``random`` are built in :func:`cmd_generate`
GENERATORS = {
    "cbvc": lambda text, mode: gen_from_cbvc(*parse_cbvc(text)),
    "sat": lambda text, mode: gen_gcse_sat(parse_dimacs(text)),
    "3sat": lambda text, mode: gen_gcse_3sat(parse_dimacs(text)),
    "x13sat": lambda text, mode: gen_qcse_x13sat(parse_dimacs(text)),
    "monotone-x13sat": lambda text, mode: gen_qcse_monotone_x13sat(parse_dimacs(text)),
    "nmx": lambda text, mode: gen_nmx(parse_dimacs(text), mode),
    "3part": lambda text, mode: gen_3part(parse_3part(text), mode),
}

#: the options only ``generate --from random`` reads, each to its value when absent
_RANDOM_DEFAULTS = {"seed": 0, "n": 6, "m": 4, "tau": 3, "k": 2, "x": 1, "y": 1, "empty_prob": 0.0}


def cmd_generate(args) -> int:
    kind = args.source
    mode = formats.MODE_TOKENS[args.mode or "gcse"]
    given = {name: value for name in _RANDOM_DEFAULTS if (value := getattr(args, name)) is not None}
    if given and kind != "random":
        raise UsageError(f"generator {kind!r} takes no --{next(iter(given)).replace('_', '-')}")
    try:
        if kind == "random":
            if args.inputs:
                raise UsageError("generator 'random' takes no input files")
            inst = random_instance(mode=mode, **{**_RANDOM_DEFAULTS, **given})
        elif kind == "or":
            if not args.inputs:
                raise UsageError("or-composition needs input instance files")
            inst = or_compose([_plain_instance(path, "generate --from or") for path in args.inputs])
        else:
            if len(args.inputs) != 1:
                raise UsageError(f"generator {kind!r} takes exactly one input file")
            inst = GENERATORS[kind](_read(args.inputs[0]), mode)
    except ValueError as exc:
        # malformed source files and unmet generator preconditions are input errors
        raise UsageError(str(exc)) from exc
    if args.mode and inst.mode != mode:
        raise UsageError(f"generator {kind!r} builds {inst.mode} instances, not --mode {args.mode}")
    _emit(formats.serialize_instance(inst), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    paths = sorted(Path(args.directory).glob("*.ecse"))
    if not paths:
        raise UsageError(f"no .ecse instances under {args.directory}")
    algos = args.algo or ["auto"]
    rows = []
    counter_keys: set[str] = set()
    for path in paths:
        inst = formats.parse_instance(_read(str(path)))
        for algo in algos:
            started = time.perf_counter()
            try:
                result, _ = solve_with_algo(inst, algo, args.max_nodes)
                verdict, stats = result.verdict, result.stats
            except GuardExceeded:
                verdict, stats = "undecided", {}
            except UsageError:
                verdict, stats = "inapplicable", {}
            micros = int((time.perf_counter() - started) * 1e6)
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
    solve.add_argument("--max-nodes", type=_node_count, default=MAX_NODES)
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
    gen.add_argument("--from", dest="source", required=True, choices=(*GENERATORS, "or", "random"))
    gen.add_argument("inputs", nargs="*")
    gen.add_argument("--mode", choices=formats.MODE_TOKENS)
    for name, default in _RANDOM_DEFAULTS.items():
        gen.add_argument(f"--{name.replace('_', '-')}", type=type(default))
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    exp = sub.add_parser("export-ip", help="write the type-grouped program in LP format")
    exp.add_argument("instance")
    exp.add_argument("--out")
    exp.set_defaults(func=cmd_export_ip)

    bench = sub.add_parser("bench", help="run solvers over a directory of instances")
    bench.add_argument("directory")
    bench.add_argument("--algo", action="append", choices=ALGORITHMS)
    bench.add_argument("--max-nodes", type=_node_count, default=MAX_NODES)
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
    except (UsageError, formats.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # not BaseException: interrupts, exits and alarm deadlines propagate
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
