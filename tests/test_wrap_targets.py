"""The benchmark's tracer wraps ecse functions by (module, attribute) name;
each of those names must still resolve, or a traced benchmark run fails, and
each must still be called, or its per-layer metric reads 0 unnoticed."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from ecse.cli import main
from ecse.formats import serialize_instance
from ecse.generators import random_instance
from ecse.model import EGALITARIAN, EQUITABLE

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (instance, --algo, the back-end that decides it, the attempts auto abandoned):
# one solve per route through the command line
ROUTES = [
    (dict(seed=3, n=6, m=4, tau=3, k=4, x=1, y=1, mode=EGALITARIAN), "auto", "trivial", []),
    (dict(seed=2, n=6, m=4, tau=2, k=2, x=1, y=1, mode=EQUITABLE), "auto", "tau2", []),
    # a missing nomination: the forcing rules run
    (dict(seed=4, n=8, m=4, tau=2, k=3, x=1, y=1, mode=EQUITABLE, empty_prob=0.2), "auto", "tau2", []),
    # y = tau: the pipeline's own trivial rule decides
    (dict(seed=4, n=8, m=4, tau=2, k=3, x=1, y=2, mode=EQUITABLE), "tau2", "tau2", []),
    # I20: branching's root refutes it before any search
    (dict(seed=3, n=20, m=4, tau=12, k=2, x=5, y=3, mode=EQUITABLE), "auto", "branch", []),
    (dict(seed=1, n=6, m=4, tau=4, k=2, x=2, y=2, mode=EGALITARIAN), "auto", "dp", []),
    # I12: the DP refuses its table and branching decides
    (dict(seed=7, n=12, m=5, tau=10, k=2, x=2, y=3, mode=EGALITARIAN), "auto", "branch", ["dp"]),
    (dict(seed=0, n=21, m=5, tau=9, k=3, x=2, y=2, mode=EGALITARIAN), "auto", "ip", []),
    (dict(seed=3, n=6, m=4, tau=3, k=2, x=1, y=1, mode=EGALITARIAN), "brute", "brute", []),
]

# names the tracer wraps but no solve calls: `build_cbivcs` stays as the public
# graph step, the other two only for their wraps
IDLE = {
    "ecse.tau2.rr_x2_force_single",
    "ecse.tau2.build_cbivcs",
    "ecse.score_dp.level_fingerprints",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable(tracing):
    assert tracing.WRAPS
    for module_name, attr, _, _ in tracing.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_wrapped_name_but_the_idle_ones_is_called(tracing, tmp_path, capsys, monkeypatch):
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    names = set()
    for module_name, attr, _, _ in tracing.WRAPS:
        module = importlib.import_module(module_name)
        name = f"{module_name}.{attr}"
        names.add(name)
        monkeypatch.setattr(module, attr, recording(name, getattr(module, attr)))
    for number, (params, algo, decided, abandoned) in enumerate(ROUTES):
        path = tmp_path / f"{number}.ecse"
        path.write_text(serialize_instance(random_instance(**params)))
        assert main(["solve", str(path), "--algo", algo, "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["algo"], [step["algo"] for step in result["route"]]) == (decided, abandoned)
    assert names - called == IDLE
