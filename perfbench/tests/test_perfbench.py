"""The benchmark's own checks: deterministic corpus, sound references,
deterministic counters, and tracing wrappers that leave no trace.

    python3 -m pytest perfbench/tests -q
"""

import importlib

import pytest

import bench
import corpus
import tracing
from ecse.oracle import brute_solve


@pytest.mark.parametrize("workload", sorted(corpus.FAMILIES))
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    first = corpus.build(workload, 5, tmp_path / "a")
    second = corpus.build(workload, 5, tmp_path / "b")
    assert first.digest == second.digest
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert corpus.build(workload, 6, tmp_path / "c").digest != first.digest


def test_oracle_mix_references_agree_with_brute_solve(tmp_path):
    built = corpus.build("oracle-mix", 11, tmp_path)
    sample = [c for i, c in enumerate(built.cases) if c.source != "oracle" or i % 8 == 0]
    assert {c.source for c in sample} == {"oracle", "sources"}
    assert {c.verdict for c in sample} == {"yes", "no"}
    for case in sample:
        assert brute_solve(case.instance).verdict == case.verdict, case.name


def test_two_runs_of_one_seed_give_identical_counters(tmp_path):
    built = corpus.build("oracle-mix", 2, tmp_path)
    seen = []
    for _ in range(2):
        run = bench.Bench(built.cases, tmp_path, bench.SETTINGS["oracle-mix"])
        run.run_pass(list(range(0, len(built.cases), 4)), bench.Loop())
        assert not run.errors
        seen.append(bench.counters(run))
    assert seen[0] == seen[1]
    assert seen[0]["route.dp"] > 0


def _current():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.WRAPS}


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    originals = _current()
    built = corpus.build("oracle-mix", 3, tmp_path)
    run = bench.Bench(built.cases, tmp_path, bench.SETTINGS["oracle-mix"])
    tracer, loop = tracing.Tracer(), bench.Loop()
    with tracer.installed():
        assert all(_current()[key] is not fn for key, fn in originals.items())
        run.run_pass(list(range(40)), loop, tracer, {})
    assert not run.errors and loop.passes == 1
    assert {"cli", "formats.parse", "model.trivial"} <= {span[0] for span in tracer.spans}
    assert _current() == originals

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("interrupted traced run")
    assert _current() == originals
