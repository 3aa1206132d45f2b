"""Smoke test: every demo script runs to completion and prints something."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_demo_runs(capsys):
    scripts = sorted(DEMOS.glob("*.py"))
    assert scripts
    for script in scripts:
        runpy.run_path(str(script), run_name="__main__")
        assert capsys.readouterr().out, script.name
