"""The package imports only the standard library, in every module of
``src/ecse`` and in function bodies too.  The test dependencies pull in
numpy and scipy, so an accidental import of either would pass every other
test; this one reads the imports from the source instead of running them."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ecse"


def test_the_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "ecse" and top not in sys.stdlib_module_names:
                    bad.append(f"{path.name}:{node.lineno}: import of {module}")
    assert not bad, "imports outside the standard library: " + ", ".join(bad)
