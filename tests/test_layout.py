"""Rules on the package source as a whole: which module may import the
quadrature oracle, and how many lines the source may take."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "wellquench"
# ROADMAP's standing line budget for `wc -l src/wellquench/*.py`
LINE_BUDGET = 2160


def imports_oscillatory(tree):
    """Whether any import statement in ``tree`` names the module _oscillatory."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any("_oscillatory" in name.split(".") for name in names):
            return True
    return False


@pytest.mark.parametrize("source", [
    "from ._oscillatory import kernel_integral", "from . import _oscillatory",
    "import wellquench._oscillatory", "from wellquench import _oscillatory as q",
    "def f():\n    from ._oscillatory import _tail"])
def test_the_scan_sees_every_import_form(source):
    assert imports_oscillatory(ast.parse(source))
    assert not imports_oscillatory(ast.parse(source.replace("_oscillatory", "oracle")))


def test_only_the_oracle_imports_the_quadrature():
    # so that outside oracle no result of the package is computed with it
    importers = {path.name for path in SOURCE.glob("*.py")
                 if imports_oscillatory(ast.parse(path.read_text()))}
    assert importers == {"oracle.py"}


def test_source_stays_within_the_line_budget():
    # the newlines `wc -l` counts
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE.glob("*.py"))
    assert lines <= LINE_BUDGET
