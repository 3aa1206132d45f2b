"""Command-line surface: output contracts, exit codes, determinism."""

import json

import pytest

from ecse.cli import main
from ecse.formats import parse_instance, parse_solution, serialize_instance
from ecse.model import verify
from ecse.generators import random_instance

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


def test_solve_json_and_algos(trip_file, capsys):
    for algo in ("auto", "brute", "branch", "dp", "ip"):
        code, out, _ = run(capsys, "solve", trip_file, "--algo", algo, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "yes"
        assert payload["committees"] == [[1, 5], [2, 3]]
        assert "stats" in payload


def test_solve_tau2_requires_equitable(trip_file, capsys):
    code, _, err = run(capsys, "solve", trip_file, "--algo", "tau2")
    assert code == 2 and "tau2" in err


def test_solve_unknown_algo_usage_error(trip_file, capsys):
    code, _, _ = run(capsys, "solve", trip_file, "--algo", "magic")
    assert code == 2


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


def test_bench_empty_dir(tmp_path, capsys):
    code, _, err = run(capsys, "bench", str(tmp_path))
    assert code == 2 and "no .ecse" in err


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
    # n > 12 and k*tau > 24: auto routes to the integer program
    inst = random_instance(1, 13, 6, 6, 5, 4, 2, "equitable")
    path = tmp_path / "big.ecse"
    path.write_text(serialize_instance(inst))
    code, _, err = run(capsys, "solve", str(path), "--max-nodes", "1")
    assert code == 3
    assert "gave up after 1 search nodes" in err
