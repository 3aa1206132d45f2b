"""Command-line surface: output contracts, exit codes, determinism."""

import json
import re
import time
from pathlib import Path

import pytest

from ecse.cli import UsageError, main, solve_with_algo
from ecse.formats import MODE_TOKENS, parse_instance, parse_solution, serialize_instance
from ecse.ip import solve_ip
from ecse.kernel import kernelize_ny
from ecse.model import EGALITARIAN, EQUITABLE, CommitteeSequence, verify
from ecse.oracle import brute_solve
from ecse.generators import (
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

from conftest import make_instance

TRIP_DOC = (
    "ecse v1\nmode gcse\nn 6\nm 6\ntau 2\nk 2\nx 4\ny 1\n"
    "levels\n1 5 1 5 3 4\n4 3 2 6 2 3\nend\n"
)


@pytest.fixture
def trip_file(tmp_path):
    path = tmp_path / "trip.ecse"
    path.write_text(TRIP_DOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_yes_with_witness(trip_file, capsys):
    code, out, _ = run(capsys, "solve", trip_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    assert "1 5" in lines
    seq = parse_solution("\n".join(lines[1:]) + "\n")
    assert seq.committees == ((1, 5), (2, 3))


def test_solve_no_and_exit_verdict(tmp_path, capsys):
    doc = TRIP_DOC.replace("mode gcse", "mode qcse")
    path = tmp_path / "equit.ecse"
    path.write_text(doc)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and out.strip() == "NO"
    code, _, _ = run(capsys, "solve", str(path), "--exit-verdict")
    assert code == 1
    code, _, _ = run(capsys, "solve", str(path.with_name("missing.ecse")))
    assert code == 2


@pytest.mark.parametrize("token", ["1_2", "\u0663", "\uff11"])
def test_tokens_int_reads_but_the_format_does_not_mean_exit_2(tmp_path, capsys, token):
    path = tmp_path / "odd.ecse"
    path.write_text(TRIP_DOC.replace("m 6", f"m {token}"), encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert f"line 4: expected an integer, got {token!r}" in err


# (--from kind, a source text with {} in place of one integer, that line)
ODD_SOURCES = [
    ("sat", "p cnf {} 1\n1 0\n", 1),
    ("sat", "c two variables\np cnf 2 1\n1 {} 0\n", 3),
    ("cbvc", "p cbvc {} 1 0\n", 1),
    ("cbvc", "p cbvc 2 2 1\n1 1\n# a second edge\n1 {}\n", 4),
    ("3part", "{} 2 3\n", 1),
    ("3part", "1 2 3\n\n2 {} 2\n", 3),
]


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11"])
@pytest.mark.parametrize("kind, text, line", ODD_SOURCES)
def test_generate_sources_refuse_tokens_int_reads_but_the_format_does_not_mean(
    kind, text, line, token, tmp_path, capsys
):
    path = tmp_path / "odd.src"
    path.write_text(text.format(token), encoding="utf-8")
    code, out, err = run(capsys, "generate", "--from", kind, str(path))
    assert (code, out, err) == (2, "", f"error: line {line}: expected an integer, got {token!r}\n")


# (--from kind, a source text, the error it exits 2 with)
SOURCE_FAULTS = [
    # a form feed ends no line
    ("sat", "p cnf 2 1\f\n1 x 0\n", "line 2: expected an integer, got 'x'"),
    ("cbvc", "p cbvc -1 2 0\n", "line 1: `p cbvc` header integers must be nonnegative"),
    ("3sat", "p cnf -2 0\n", "line 1: `p cnf` header integers must be nonnegative"),
    ("cbvc", "p cbvc 2 2 -1\n", "line 1: `p cbvc` header integers must be nonnegative"),
]


@pytest.mark.parametrize("kind, text, message", SOURCE_FAULTS)
def test_generate_source_faults_name_their_line(kind, text, message, tmp_path, capsys):
    path = tmp_path / "bad.src"
    path.write_text(text)
    code, out, err = run(capsys, "generate", "--from", kind, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_solve_json_and_algos(trip_file, capsys):
    for algo in ("auto", "brute", "branch", "dp", "ip"):
        code, out, _ = run(capsys, "solve", trip_file, "--algo", algo, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "yes"
        assert payload["committees"] == [[1, 5], [2, 3]]
        assert "stats" in payload


def test_solve_json_reports_wall_time_on_every_route(tmp_path, capsys):
    # y = 0 is decided by the trivial rules; the trip instance goes to the DP
    for doc, route in ((TRIP_DOC.replace("y 1", "y 0"), "trivial"), (TRIP_DOC, "dp")):
        path = tmp_path / f"{route}.ecse"
        path.write_text(doc)
        code, out, _ = run(capsys, "solve", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["algo"] == route
        assert isinstance(payload["stats"]["elapsed_micros"], int)
        assert payload["route"] == []  # the first attempt decided


def test_solve_tau2_requires_equitable(trip_file, capsys):
    code, _, err = run(capsys, "solve", trip_file, "--algo", "tau2")
    assert code == 2 and "tau2" in err


def test_solve_unknown_algo_usage_error(trip_file, capsys):
    code, _, _ = run(capsys, "solve", trip_file, "--algo", "magic")
    assert code == 2
    # argparse's choices stop it above; the dispatcher refuses it on its own
    with pytest.raises(UsageError) as err:
        solve_with_algo(parse_instance(Path(trip_file).read_text()), "bogus")
    assert str(err.value) == "unknown algorithm 'bogus'"


def test_solve_pe_instance(tmp_path, capsys):
    pe_doc = (
        "ecse v1\nmode gcse\nn 2\nm 2\ntau 2\nk 0\nx 0\ny 0\n"
        "kvec 1 1\nxvec 1 1\nyvec 1 1\nlevels\n1 2\n2 1\nend\n"
    )
    path = tmp_path / "pe.ecse"
    path.write_text(pe_doc)
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0
    assert json.loads(out)["algo"] == "branch"
    code, _, err = run(capsys, "solve", str(path), "--algo", "dp")
    assert code == 2 and "pre-elected" in err


def test_verify_outputs(trip_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("ecse-sol v1\n2\n1 5\n2 3\n")
    code, out, _ = run(capsys, "verify", trip_file, str(sol))
    assert code == 0 and out.strip() == "FEASIBLE"

    equit = tmp_path / "equit.ecse"
    equit.write_text(TRIP_DOC.replace("mode gcse", "mode qcse"))
    code, out, _ = run(capsys, "verify", str(equit), str(sol))
    assert code == 0 and out.strip() == "INFEASIBLE agent-score a=2"

    short = tmp_path / "short.txt"
    short.write_text("ecse-sol v1\n1\n1 5\n")
    code, _, err = run(capsys, "verify", trip_file, str(short))
    assert code == 2

    code, out, _ = run(capsys, "verify", trip_file, str(sol), "--json")
    assert json.loads(out)["feasible"] is True

    code, out, _ = run(capsys, "verify", str(equit), str(sol), "--json")
    assert code == 0
    assert out == (
        '{"agent_scores": [1, 2, 2, 1, 1, 1], "feasible": false, '
        '"first_violation": {"index": 2, "kind": "agent-score"}, "level_scores": [4, 4]}\n'
    )


def test_kernelize_resolves(tmp_path, capsys):
    doc = serialize_instance(make_instance([(1,), (1,)], mode="egalitarian", k=1, x=0, y=1))
    path = tmp_path / "tiny.ecse"
    path.write_text(doc)
    code, out, _ = run(capsys, "kernelize", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "RESOLVED YES"
    seq = parse_solution("\n".join(lines[1:]) + "\n")
    assert verify(parse_instance(doc), seq).feasible


def test_kernelize_reduced_writes_instance(tmp_path, capsys):
    rows = [(1, 1, 2)] * 8 + [(3, 3, 3)]
    inst = make_instance(rows, mode="egalitarian", k=1, x=2, y=1)
    path = tmp_path / "wide.ecse"
    path.write_text(serialize_instance(inst))
    out_path = tmp_path / "kernel.ecse"
    code, out, _ = run(capsys, "kernelize", str(path), "--out", str(out_path))
    assert code == 0
    if out.startswith("REDUCED"):
        kernel = parse_instance(out_path.read_text())
        assert kernel.tau <= inst.tau


def test_generate_sat(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 -2 0\n-1 2 0\n")
    code, out, _ = run(capsys, "generate", "--from", "sat", str(cnf))
    assert code == 0
    inst = parse_instance(out)
    assert (inst.m, inst.k) == (2, 1)


def test_generate_random_deterministic(tmp_path, capsys):
    args = ("generate", "--from", "random", "--seed", "9", "--n", "4", "--m", "3",
            "--tau", "2", "--k", "1", "--x", "1", "--y", "1", "--mode", "qcse")
    code, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert code == code2 == 0
    assert first == second
    inst = parse_instance(first)
    assert inst == random_instance(9, 4, 3, 2, 1, 1, 1, "equitable", 0.0)


def test_generate_or(tmp_path, capsys):
    unit = tmp_path / "unit.ecse"
    unit.write_text(
        "ecse v1\nmode gcse\nn 1\nm 2\ntau 1\nk 1\nx 0\ny 1\nlevels\n1\nend\n"
    )
    code, out, _ = run(capsys, "generate", "--from", "or", str(unit), str(unit))
    assert code == 0
    assert parse_instance(out).tau == 2


def test_export_ip(trip_file, capsys):
    code, out, _ = run(capsys, "export-ip", trip_file)
    assert code == 0
    assert out.startswith("Minimize")
    assert " a2: x_t1_c1 + x_t2_c1 >= 1\n" in out


def test_bench_csv_stable(tmp_path, capsys):
    for seed in range(3):
        inst = random_instance(seed, 4, 3, 2, 1, 1, 1, "egalitarian", 0.2)
        (tmp_path / f"i{seed}.ecse").write_text(serialize_instance(inst))
    code, first, _ = run(capsys, "bench", str(tmp_path), "--algo", "auto", "--algo", "brute")
    assert code == 0
    header = first.splitlines()[0].split(",")
    assert header[:4] == ["instance", "algo", "verdict", "micros"]
    rows = [line.split(",")[:3] for line in first.splitlines()[1:]]
    assert rows == sorted(rows)
    code, second, _ = run(capsys, "bench", str(tmp_path), "--algo", "auto", "--algo", "brute")

    def strip_micros(text):
        return [
            ",".join(cell for i, cell in enumerate(line.split(",")) if i != 3)
            for line in text.splitlines()
        ]

    assert strip_micros(first) == strip_micros(second)


def test_bench_writes_inapplicable_rows(tmp_path, capsys):
    (tmp_path / "pe.ecse").write_text(
        "ecse v1\nmode gcse\nn 3\nm 3\ntau 2\nk 0\nx 0\ny 0\n"
        "kvec 1 2\nxvec 1 2\nyvec 2 1 0\nlevels\n1 2 3\n1 1 2\nend\n"
    )
    inst = random_instance(3, 6, 4, 3, 2, 1, 1, "egalitarian")
    (tmp_path / "plain.ecse").write_text(serialize_instance(inst))
    code, out, _ = run(capsys, "bench", str(tmp_path), "--algo", "dp", "--algo", "auto")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [
        ["pe.ecse", "auto"], ["pe.ecse", "dp"], ["plain.ecse", "auto"], ["plain.ecse", "dp"],
    ]
    assert rows[0][2] == "yes" and rows[1][2] == "inapplicable"
    assert set(rows[1][4:]) <= {""}
    assert rows[2][2] == rows[3][2] == brute_solve(inst).verdict


def test_bench_empty_dir(tmp_path, capsys):
    code, _, err = run(capsys, "bench", str(tmp_path))
    assert code == 2 and "no .ecse" in err


def test_bench_unreadable_entry_is_a_usage_error(trip_file, capsys):
    # a directory whose name ends in .ecse is an input error, not a crash
    directory = Path(trip_file).parent
    (directory / "x.ecse").mkdir()
    code, out, err = run(capsys, "bench", str(directory))
    assert code == 2
    assert "cannot read" in err and "x.ecse" in err and "Traceback" not in err
    assert out == ""


def test_generate_solve_verify_pipeline(tmp_path, capsys):
    """File-level round trip: generated instances solve, and emitted
    witnesses verify as feasible through the verify subcommand."""
    feasible_seen = 0
    for seed in range(12):
        inst_path = tmp_path / f"r{seed}.ecse"
        sol_path = tmp_path / f"r{seed}.sol"
        code, out, _ = run(
            capsys, "generate", "--from", "random", "--seed", str(seed),
            "--n", "5", "--m", "4", "--tau", "3", "--k", "2", "--x", "1", "--y", "1",
            "--mode", "qcse" if seed % 2 else "gcse", "--empty-prob", "0.2",
            "--out", str(inst_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "solve", str(inst_path), "--out", str(sol_path))
        assert code == 0
        if out.startswith("YES"):
            feasible_seen += 1
            code, out, _ = run(capsys, "verify", str(inst_path), str(sol_path))
            assert code == 0 and out.strip() == "FEASIBLE"
    assert feasible_seen


def test_auto_routing_agrees_with_brute():
    from ecse.cli import solve_with_algo
    from ecse.oracle import brute_solve

    routes = set()
    for seed in range(120):
        inst = random_instance(
            seed, n=1 + seed % 6, m=1 + seed % 5, tau=1 + (seed // 2) % 4,
            k=seed % 4, x=seed % 3, y=seed % 3,
            mode="egalitarian" if seed % 2 else "equitable",
            empty_prob=(seed % 3) / 8,
        )
        result, algo = solve_with_algo(inst, "auto")
        routes.add(algo)
        assert result.verdict == brute_solve(inst).verdict, f"seed {seed}"
    assert "trivial" in routes and "dp" in routes and "tau2" in routes


def test_auto_reports_the_ip_budget_when_it_gives_up(tmp_path, capsys):
    # n > 20 (past the score DP's agent guard) and k*tau > 24: auto routes
    # straight to the integer program
    inst = random_instance(1, 21, 6, 6, 5, 4, 2, "equitable")
    path = tmp_path / "big.ecse"
    path.write_text(serialize_instance(inst))
    code, _, err = run(capsys, "solve", str(path), "--max-nodes", "1")
    assert code == 3
    assert "gave up after 1 search nodes" in err


def test_auto_decides_i12_by_branching_once_the_dp_budget_refuses(tmp_path, capsys):
    # I12: the score DP's table would pass 10^6 entries, so its auto budget
    # refuses, and branching decides it (yes) in 25 nodes
    inst = random_instance(7, 12, 5, 10, 2, 2, 3, EGALITARIAN)
    path = tmp_path / "i12.ecse"
    path.write_text(serialize_instance(inst))
    code, out, _ = run(capsys, "solve", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["algo"] == "branch" and payload["verdict"] == "yes"
    assert payload["stats"]["nodes_expanded"] == 25
    assert payload["route"] == [{"algo": "dp", "refused": "score table exceeds 2000 entries"}]
    assert verify(inst, CommitteeSequence.of(payload["committees"])).feasible


def test_auto_lets_branching_refute_i20_at_its_root_before_any_dp_attempt(tmp_path, capsys):
    # I20: branching's counting bound refutes the root, so auto never tries
    # the score DP, whose budget would refuse it
    inst = random_instance(3, 20, 4, 12, 2, 5, 3, EQUITABLE)
    path = tmp_path / "i20.ecse"
    path.write_text(serialize_instance(inst))
    code, out, _ = run(capsys, "solve", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["algo"] == "branch" and payload["verdict"] == "no"
    assert payload["stats"]["nodes_expanded"] == 1 and payload["route"] == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_auto_lets_branching_refute_e20_at_its_root_before_the_ip(tmp_path, capsys, seed):
    # E20: k*tau = 40 keeps branching's search out of auto and the DP's budget
    # would refuse, so without branching's root the IP would search 2,000,000
    # nodes and give up; the root refutes it before the DP is tried
    inst = random_instance(seed, 10, 5, 20, 2, 2, 3, EQUITABLE)
    path = tmp_path / "e20.ecse"
    path.write_text(serialize_instance(inst))
    code, _, _ = run(capsys, "solve", str(path), "--exit-verdict")
    assert code == 1
    code, out, _ = run(capsys, "solve", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["algo"] == "branch" and payload["verdict"] == "no"
    assert payload["route"] == []
    assert payload["stats"]["nodes_expanded"] == 1


# small no-instances (k*tau <= 24) that the score DP decides within its auto
# budget, but that branching's root refutes first
ROOT_REFUTED = [
    (3, 7, 4, 5, 1, 3, 1, EQUITABLE),
    (99, 5, 3, 5, 1, 3, 1, EGALITARIAN),
]


@pytest.mark.parametrize("args", ROOT_REFUTED, ids=lambda args: args[-1])
def test_auto_runs_branchings_root_before_the_dp_unless_max_nodes_is_0(tmp_path, capsys, args):
    inst = random_instance(*args)
    assert brute_solve(inst).verdict == "no"
    path = tmp_path / "small.ecse"
    path.write_text(serialize_instance(inst))
    code, out, _ = run(capsys, "solve", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["algo"] == "branch" and payload["verdict"] == "no"
    assert payload["stats"]["nodes_expanded"] == 1 and payload["route"] == []
    code, out, _ = run(capsys, "solve", str(path), "--json", "--max-nodes", "0")
    payload = json.loads(out)
    assert code == 0 and payload["algo"] == "dp" and payload["verdict"] == "no"
    assert payload["route"] == []


@pytest.mark.parametrize("mode", [EGALITARIAN, EQUITABLE])
def test_auto_agrees_with_brute_from_13_to_20_agents(mode):
    from ecse.cli import solve_with_algo
    from ecse.oracle import OracleLimits

    limits = OracleLimits(max_n=20, max_m=4, max_tau=3)
    routes = set()
    for seed in range(48):
        n, tau = 13 + seed % 8, 1 + seed % 3
        inst = random_instance(
            seed, n=n, m=2 + seed % 3, tau=tau, k=1 + seed % 2, x=seed % 5,
            y=1 + (seed // 3) % tau, mode=mode, empty_prob=(seed % 3) / 8,
        )
        result, algo = solve_with_algo(inst, "auto")
        routes.add(algo)
        assert result.verdict == brute_solve(inst, limits).verdict, f"seed {seed}"
        if result.witness is not None:
            assert verify(inst, result.witness).feasible, f"seed {seed}"
    assert "dp" in routes


def _solve_verified_yes(tmp_path, capsys, inst, *argv):
    path, sol = tmp_path / "deep.ecse", tmp_path / "deep.sol"
    path.write_text(serialize_instance(inst))
    code, _, err = run(capsys, "solve", str(path), "--exit-verdict", "--out", str(sol), *argv)
    assert code == 0, err
    code, out, _ = run(capsys, "verify", str(path), str(sol))
    assert code == 0 and out.strip() == "FEASIBLE"


def test_ip_deep_search_decides_yes(tmp_path, capsys):
    # auto routes to the IP, whose search path is one node per variable (1,768)
    inst = random_instance(0, 13, 8, 30, 3, 1, 1, "egalitarian")
    _solve_verified_yes(tmp_path, capsys, inst)


def test_branching_deep_search_decides_yes(tmp_path, capsys):
    # a yes-instance (auto decides it trivially) that branches once per agent
    row = tuple(range(1, 1201))
    inst = make_instance([row, row], mode="egalitarian", k=1200, x=0, y=1, m=1200)
    _solve_verified_yes(tmp_path, capsys, inst, "--algo", "branch")


def test_branching_budget_refuses_and_auto_falls_through_to_ip(tmp_path, capsys):
    # n > 20 (past the score DP's agent guard) and k*tau <= 24: auto tries
    # branching (52 nodes) before the IP (which decides within 20), and
    # --max-nodes budgets both searches
    inst = random_instance(16, 25, 5, 6, 1, 4, 1, "egalitarian", 0.2)
    path = tmp_path / "mid.ecse"
    path.write_text(serialize_instance(inst))
    code, _, err = run(capsys, "solve", str(path), "--algo", "branch", "--max-nodes", "10")
    assert code == 3
    assert "gave up after 10 search nodes" in err
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0 and json.loads(out)["algo"] == "branch"
    code, out, _ = run(capsys, "solve", str(path), "--json", "--max-nodes", "20")
    payload = json.loads(out)
    assert code == 0 and payload["algo"] == "ip"
    assert payload["route"] == [{"algo": "branch", "refused": "gave up after 20 search nodes"}]
    assert payload["verdict"] == solve_ip(inst).verdict == "no"


def test_unexpected_exception_exits_4_not_no(trip_file, capsys, monkeypatch):
    # a crash must not read as the --exit-verdict NO code (1)
    def broken(inst):
        raise KeyError("lost")

    monkeypatch.setattr("ecse.cli.solve_dp", broken)
    code, _, err = run(capsys, "solve", trip_file, "--algo", "dp", "--exit-verdict")
    assert code == 4
    assert "Traceback" in err and "KeyError: 'lost'" in err


def test_backend_value_error_is_a_crash(trip_file, capsys, monkeypatch):
    # only input errors exit 2; a back-end's broken invariant is a crash
    def broken(inst):
        raise ValueError("invariant broken")

    monkeypatch.setattr("ecse.cli.solve_dp", broken)
    code, _, err = run(capsys, "solve", trip_file, "--algo", "dp")
    assert code == 4
    assert "Traceback" in err and "ValueError: invariant broken" in err


def test_input_errors_exit_2(tmp_path, capsys):
    equit = tmp_path / "equit.ecse"
    equit.write_text(TRIP_DOC.replace("mode gcse", "mode qcse"))
    code, _, err = run(capsys, "kernelize", str(equit))
    assert code == 2 and "egalitarian" in err

    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 -3 0\n")
    code, _, err = run(capsys, "generate", "--from", "sat", str(cnf))
    assert code == 2 and "exceeds variable count" in err

    code, _, err = run(capsys, "generate", "--from", "random", "--empty-prob", "2")
    assert code == 2 and "empty_prob" in err

    code, _, err = run(capsys, "generate", "--from", "random", "--n", "3", "--m", "-2")
    assert code == 2 and "need n >= 0, m >= 0, tau >= 1" in err

    nums = tmp_path / "nums.txt"
    nums.write_text("1 2 3\n")
    code, out, err = run(
        capsys, "generate", "--from", "random", str(nums), "--n", "2", "--m", "2", "--tau", "1"
    )
    assert (code, out) == (2, "") and "generator 'random' takes no input files" in err

    code, out, err = run(capsys, "generate", "--from", "or")
    assert (code, out) == (2, "") and "or-composition needs input instance files" in err

    for inputs in ([], [str(cnf), str(cnf)]):
        code, out, err = run(capsys, "generate", "--from", "sat", *inputs)
        assert (code, out) == (2, "") and "generator 'sat' takes exactly one input file" in err

    # the options only random reads are input errors for every other kind
    good_cnf = tmp_path / "good.cnf"
    good_cnf.write_text(CNF)
    for kind, path, option, value in (
        ("sat", good_cnf, "--n", "9"),
        ("or", equit, "--seed", "4"),
        ("3part", nums, "--empty-prob", "0.5"),
    ):
        code, out, err = run(capsys, "generate", "--from", kind, str(path), option, value)
        assert (code, out, err) == (2, "", f"error: generator {kind!r} takes no {option}\n")


CNF = "p cnf 3 3\n1 2 -3 0\n-1 2 0\n3 0\n"
MONOTONE_CNF = "p cnf 3 3\n1 2 3 0\n1 2 3 0\n1 2 3 0\n"
NMX_CNF = "p cnf 3 4\n1 2 3 0\n1 2 3 0\n-1 -2 -3 0\n-1 -2 -3 0\n"
CBVC = "p cbvc 2 2 1\n1 1\n1 2\n2 1\n"
UNIT_DOC = "ecse v1\nmode gcse\nn 1\nm 2\ntau 1\nk 1\nx 0\ny 1\nlevels\n1\nend\n"
PE_DOC = (
    "ecse v1\nmode gcse\nn 2\nm 2\ntau 2\nk 0\nx 0\ny 0\n"
    "kvec 1 1\nxvec 1 1\nyvec 1 1\nlevels\n1 2\n2 1\nend\n"
)

# (--from kind, the mode of the instance, input file texts, the instance it
# must write); the kinds that read --mode are given it and run in both modes,
# the others build one mode and are run without --mode
MODE_KINDS = ("nmx", "3part", "random")
GENERATE_CASES = [
    ("cbvc", "gcse", [CBVC], lambda: gen_from_cbvc(*parse_cbvc(CBVC))),
    ("sat", "gcse", [CNF], lambda: gen_gcse_sat(parse_dimacs(CNF))),
    ("3sat", "gcse", [CNF], lambda: gen_gcse_3sat(parse_dimacs(CNF))),
    ("x13sat", "qcse", [CNF], lambda: gen_qcse_x13sat(parse_dimacs(CNF))),
    ("monotone-x13sat", "qcse", [MONOTONE_CNF],
     lambda: gen_qcse_monotone_x13sat(parse_dimacs(MONOTONE_CNF))),
    ("nmx", "gcse", [NMX_CNF], lambda: gen_nmx(parse_dimacs(NMX_CNF), EGALITARIAN)),
    ("nmx", "qcse", [MONOTONE_CNF], lambda: gen_nmx(parse_dimacs(MONOTONE_CNF), EQUITABLE)),
    ("3part", "gcse", ["1 2 3 2 2 2\n"], lambda: gen_3part([1, 2, 3, 2, 2, 2], EGALITARIAN)),
    ("3part", "qcse", ["1 2 3 2 2 2\n"], lambda: gen_3part([1, 2, 3, 2, 2, 2], EQUITABLE)),
    ("or", "gcse", [UNIT_DOC, UNIT_DOC], lambda: or_compose([parse_instance(UNIT_DOC)] * 2)),
    ("random", "gcse", [], lambda: random_instance(0, 6, 4, 3, 2, 1, 1, EGALITARIAN, 0.0)),
    ("random", "qcse", [], lambda: random_instance(0, 6, 4, 3, 2, 1, 1, EQUITABLE, 0.0)),
]


def write_inputs(tmp_path, texts):
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"input{i}"
        path.write_text(text)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "kind, mode, texts, build", GENERATE_CASES, ids=[f"{k}-{m}" for k, m, *_ in GENERATE_CASES]
)
def test_generate_writes_the_generator_output(kind, mode, texts, build, tmp_path, capsys):
    mode_args = ["--mode", mode] if kind in MODE_KINDS else []
    code, out, err = run(capsys, "generate", "--from", kind, *mode_args, *write_inputs(tmp_path, texts))
    assert (code, err) == (0, "")
    assert out == serialize_instance(build())
    assert parse_instance(out).mode == MODE_TOKENS[mode]


# (--from kind, --mode, input file texts, the mode the construction fixes
# where --mode contradicts it, else None)
FIXED_MODE_CASES = [
    ("x13sat", "qcse", [CNF], None),
    ("x13sat", "gcse", [CNF], "equitable"),
    ("monotone-x13sat", "gcse", [MONOTONE_CNF], "equitable"),
    ("sat", "qcse", [CNF], "egalitarian"),
    ("3sat", "qcse", [CNF], "egalitarian"),
    ("cbvc", "qcse", [CBVC], "egalitarian"),
    ("or", "qcse", [UNIT_DOC, UNIT_DOC], "egalitarian"),
]


@pytest.mark.parametrize(
    "kind, mode, texts, built", FIXED_MODE_CASES, ids=[f"{k}-{m}" for k, m, *_ in FIXED_MODE_CASES]
)
def test_generate_mode_must_agree_with_a_fixed_mode_construction(kind, mode, texts, built, tmp_path, capsys):
    paths = write_inputs(tmp_path, texts)
    code, out, err = run(capsys, "generate", "--from", kind, "--mode", mode, *paths)
    if built is None:
        assert (code, err) == (0, "")
        assert out == run(capsys, "generate", "--from", kind, *paths)[1]
    else:
        assert (code, out) == (2, "")
        assert err == f"error: generator {kind!r} builds {built} instances, not --mode {mode}\n"


@pytest.mark.parametrize("argv", [
    ["kernelize", "{pe}"],
    ["export-ip", "{pe}"],
    ["generate", "--from", "or", "{pe}"],
])
def test_plain_only_commands_refuse_pre_elected_files(argv, tmp_path, capsys):
    pe = tmp_path / "pe.ecse"
    pe.write_text(PE_DOC)
    sol = tmp_path / "sol.txt"
    sol.write_text("2\n1\n2\n")
    code, out, err = run(capsys, *[a.format(pe=pe, sol=sol) for a in argv])
    assert code == 2 and out == ""
    assert "pre-elected" in err and argv[0] in err


def test_verify_pre_elected_file(tmp_path, capsys):
    # per-level budgets and thresholds and per-agent targets, none of them
    # the scalar k, x, y the header carries
    pe = tmp_path / "pe.ecse"
    pe.write_text(
        "ecse v1\nmode gcse\nn 3\nm 3\ntau 2\nk 0\nx 0\ny 0\n"
        "kvec 1 2\nxvec 1 2\nyvec 2 1 0\nlevels\n1 2 3\n1 1 2\nend\n"
    )
    sol = tmp_path / "pe.sol"
    code, _, _ = run(capsys, "solve", str(pe), "--out", str(sol))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(pe), str(sol))
    assert (code, out) == (0, "FEASIBLE\n")
    sol.write_text("ecse-sol v1\n2\n2\n1 2\n")
    code, out, _ = run(capsys, "verify", str(pe), str(sol))
    assert (code, out) == (0, "INFEASIBLE agent-score a=1\n")


def test_verify_refuses_a_candidate_above_m(tmp_path, capsys):
    plain = tmp_path / "plain.ecse"
    plain.write_text("ecse v1\nmode gcse\nn 2\nm 2\ntau 1\nk 2\nx 0\ny 0\nlevels\n1 2\nend\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("ecse-sol v1\n1\n1 7\n")
    code, out, err = run(capsys, "verify", str(plain), str(sol))
    assert (code, out) == (2, "")
    assert "m=2" in err
    pe = tmp_path / "pe.ecse"
    pe.write_text(
        "ecse v1\nmode gcse\nn 3\nm 3\ntau 2\nk 0\nx 0\ny 0\n"
        "kvec 1 2\nxvec 1 2\nyvec 2 1 0\nlevels\n1 2 3\n1 1 2\nend\n"
    )
    sol.write_text("ecse-sol v1\n2\n1\n1 4\n")
    code, out, err = run(capsys, "verify", str(pe), str(sol))
    assert (code, out) == (2, "")
    assert "m=3" in err


def test_auto_falls_through_a_dp_refusal(trip_file, capsys, monkeypatch):
    monkeypatch.setattr("ecse.score_dp.MAX_TABLE_ENTRIES", 1)
    code, out, _ = run(capsys, "solve", trip_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algo"] != "dp"
    assert payload["verdict"] == brute_solve(parse_instance(TRIP_DOC)).verdict


def test_dp_table_cap_exits_3(trip_file, capsys, monkeypatch):
    monkeypatch.setattr("ecse.score_dp.MAX_TABLE_ENTRIES", 1)
    code, out, err = run(capsys, "solve", trip_file, "--algo", "dp")
    assert code == 3 and out == ""
    assert "score table" in err


def test_solve_refuses_a_huge_committee_enumeration_at_once(tmp_path, capsys):
    # 25/25/24 distinct candidates per level, under the 30-candidate guard;
    # auto routes it to the IP, which would enumerate 3,850,756 committees
    # per level
    path = tmp_path / "wide.ecse"
    path.write_text(serialize_instance(random_instance(0, 40, 40, 3, 9, 1, 1, EGALITARIAN)))
    started = time.perf_counter()
    code, out, err = run(capsys, "solve", str(path))
    assert time.perf_counter() - started < 2.0
    assert code == 3 and out == ""
    assert "enumeration guard" in err


@pytest.mark.parametrize("argv", [["solve"], ["solve", "--algo", "ip"], ["export-ip"]])
def test_more_than_30_distinct_candidates_refuse_at_any_k(argv, tmp_path, capsys):
    # the distinct-candidate rule refuses at k = 1, where 35 candidates give
    # only 36 subsets; kernelize never enumerates and still answers
    path = tmp_path / "wide30.ecse"
    path.write_text(serialize_instance(random_instance(0, 60, 60, 30, 1, 1, 1, EGALITARIAN)))
    started = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (3, "")
    assert "35 distinct candidates with k=1 in one level exceed the enumeration guard" in err
    code, out, _ = run(capsys, "kernelize", str(path))
    assert code == 0 and out.startswith("REDUCED")


@pytest.mark.parametrize("argv", [
    ["solve", "{bad}"],
    ["verify", "{bad}", "{sol}"],
    ["verify", "{trip}", "{bad}"],
    ["kernelize", "{bad}"],
    ["export-ip", "{bad}"],
    ["bench", "{dir}"],
    ["generate", "--from", "sat", "{bad}"],
], ids=lambda argv: "-".join(a.strip("{}") for a in argv))
def test_a_file_that_is_not_utf8_is_an_input_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.ecse"
    bad.write_bytes(b"ecse v1\nmode gcse\n\xff\n")
    trip = tmp_path / "trip.txt"
    trip.write_text(TRIP_DOC)
    sol = tmp_path / "sol.txt"
    sol.write_text("ecse-sol v1\n2\n1 5\n2 3\n")
    code, out, err = run(capsys, *[
        a.format(bad=bad, trip=trip, sol=sol, dir=tmp_path) for a in argv
    ])
    assert (code, out) == (2, "")
    assert f"cannot read {bad}: " in err and "Traceback" not in err


def test_a_byte_order_mark_reads_as_the_plain_document(tmp_path, capsys):
    outputs = []
    for prefix in ("", "\ufeff"):
        doc = tmp_path / f"doc{len(prefix)}.ecse"
        doc.write_text(prefix + TRIP_DOC, encoding="utf-8")
        sol = tmp_path / f"sol{len(prefix)}.txt"
        sol.write_text(prefix + "ecse-sol v1\n2\n1 5\n2 3\n", encoding="utf-8")
        outputs.append((run(capsys, "solve", str(doc)), run(capsys, "verify", str(doc), str(sol))))
    plain, marked = outputs
    assert plain == marked
    (solved, _, _), verified = plain
    assert solved == 0 and verified == (0, "FEASIBLE\n", "")


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_negative_max_nodes_is_a_usage_error(command, trip_file, capsys):
    target = trip_file if command == "solve" else str(Path(trip_file).parent)
    code, out, err = run(capsys, command, target, "--max-nodes", "-5")
    assert (code, out) == (2, "")
    assert "usage:" in err and "--max-nodes" in err


@pytest.mark.parametrize("argv", [
    ["solve", "{trip}", "--out", "{out}"],
    ["generate", "--from", "random", "--out", "{out}"],
    ["kernelize", "{wide}", "--out", "{out}"],
    ["export-ip", "{trip}", "--out", "{out}"],
    ["bench", "{dir}", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_unwritable_output_path_is_a_usage_error(argv, trip_file, capsys):
    directory = Path(trip_file).parent
    # kernelize writes only a reduced instance; bench reads only *.ecse files
    wide = directory / "wide.txt"
    wide.write_text(serialize_instance(
        make_instance([(1, 1, 2)] * 8 + [(3, 3, 3)], mode=EGALITARIAN, k=1, x=2, y=1)
    ))
    out = directory / "missing" / "out.txt"
    code, _, err = run(capsys, *[
        a.format(trip=trip_file, wide=wide, dir=directory, out=out) for a in argv
    ])
    assert code == 2
    assert f"cannot write {out}" in err and "Traceback" not in err


def test_kernelize_json_keys(tmp_path, capsys):
    keys = {"resolved", "verdict", "kept_levels", "deleted_levels", "rules"}
    resolved = tmp_path / "tiny.ecse"
    resolved.write_text(serialize_instance(make_instance([(1,), (1,)], mode=EGALITARIAN, k=1, x=0, y=1)))
    code, out, _ = run(capsys, "kernelize", str(resolved), "--json")
    payload = json.loads(out)
    assert code == 0 and set(payload) == keys
    assert payload["resolved"] is True and payload["verdict"] == "yes"
    inst = make_instance([(1, 1, 2)] * 8 + [(3, 3, 3)], mode=EGALITARIAN, k=1, x=2, y=1)
    wide = tmp_path / "wide.ecse"
    wide.write_text(serialize_instance(inst))
    code, out, _ = run(capsys, "kernelize", str(wide), "--json")
    payload = json.loads(out)
    assert code == 0 and set(payload) == keys
    assert payload == {
        "resolved": False, "verdict": None, "kept_levels": [7, 8, 9],
        "deleted_levels": [1, 2, 3, 4, 5, 6], "rules": [["delete-level", t] for t in range(1, 7)],
    }
    # with --out the unresolved kernel goes to that file, the payload still to stdout
    kernel = tmp_path / "kernel.ecse"
    code, out, _ = run(capsys, "kernelize", str(wide), "--json", "--out", str(kernel))
    assert (code, json.loads(out)) == (0, payload)
    assert kernel.read_text() == serialize_instance(kernelize_ny(inst).instance)


def test_solve_tau2_json_witness_verifies(tmp_path, capsys):
    path = tmp_path / "two.ecse"
    code, _, _ = run(
        capsys, "generate", "--from", "random", "--mode", "qcse", "--seed", "2", "--n", "6",
        "--m", "4", "--tau", "2", "--k", "2", "--x", "1", "--y", "1", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "solve", str(path), "--algo", "tau2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["algo"] == "tau2" and payload["verdict"] == "yes"
    seq = CommitteeSequence.of(payload["committees"])
    assert verify(parse_instance(path.read_text()), seq).feasible


def test_bench_writes_undecided_rows(trip_file, capsys, monkeypatch):
    # one level and one agent: the DP's table holds one vector, within the cap
    directory = Path(trip_file).parent
    (directory / "one.ecse").write_text(
        serialize_instance(make_instance([(1,)], mode=EGALITARIAN, k=1, x=1, y=1))
    )
    monkeypatch.setattr("ecse.score_dp.MAX_TABLE_ENTRIES", 1)
    code, out, _ = run(capsys, "bench", str(directory), "--algo", "dp")
    assert code == 0
    header, decided, refused = (line.split(",") for line in out.splitlines())
    assert header == [
        "instance", "algo", "verdict", "micros",
        "committees_enumerated", "max_frontier", "table_entries",
    ]
    assert decided[:3] == ["one.ecse", "dp", "yes"] and decided[4:] == ["1", "1", "1"]
    assert refused[:3] == ["trip.ecse", "dp", "undecided"] and refused[4:] == ["", "", ""]


#: every option and positional each subcommand's --help must name
SUBCOMMAND_ARGUMENTS = {
    "solve": ("instance", "--algo", "--json", "--exit-verdict", "--max-nodes", "--out"),
    "verify": ("instance", "solution", "--json"),
    "kernelize": ("instance", "--json", "--out"),
    "generate": (
        "--from", "inputs", "--mode", "--seed", "--n", "--m", "--tau", "--k", "--x", "--y",
        "--empty-prob", "--out",
    ),
    "export-ip": ("instance", "--out"),
    "bench": ("directory", "--algo", "--max-nodes", "--out"),
}


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["bogus"]] + [[command, "--help"] for command in SUBCOMMAND_ARGUMENTS],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_help_and_usage_errors_repeat_exactly(argv, capsys):
    # no golden text: argparse lays help out differently across Python versions
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second
    code, out, err = first
    assert code == (0 if "--help" in argv else 2)
    assert (out if code == 0 else err).strip()
    if argv[1:] == ["--help"]:
        for name in SUBCOMMAND_ARGUMENTS[argv[0]]:
            # a whole token, so that --m is not found inside --mode
            assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", out), (argv[0], name)
