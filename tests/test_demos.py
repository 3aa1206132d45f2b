"""Smoke tests: every demo script and README.md's library example run to
completion."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_every_demo_runs(capsys):
    scripts = sorted(DEMOS.glob("*.py"))
    assert scripts
    for script in scripts:
        runpy.run_path(str(script), run_name="__main__")
        assert capsys.readouterr().out, script.name


def test_readme_library_example_runs():
    # the example's imports from ecse and its asserts must stay valid
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from ecse import" in code
    exec(compile(code, "README.md", "exec"), {})
