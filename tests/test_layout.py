"""Rules on the package source as a whole: which module may import the
quadrature oracle, which may find a residue lattice, which may take an FFT,
how many lines the source may take, and which private names README may cite."""

import ast
import re
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


def calls_lattice_of(tree):
    """Whether ``tree`` calls _lattice_of, bare or as an attribute, or imports
    it, which would let it call it under another name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "_lattice_of":
            return True
    return False


@pytest.mark.parametrize("source", [
    "_lattice_of(xs, n)", "spectral._lattice_of(xs, n)",
    "from .spectral import _lattice_of as find",
    "def f(xs):\n    return wellquench.spectral._lattice_of(xs, 2)"])
def test_the_scan_sees_every_call_form(source):
    assert calls_lattice_of(ast.parse(source))
    assert not calls_lattice_of(ast.parse(source.replace("_lattice_of", "_lattice_read")))


def test_only_spectral_finds_a_lattice():
    # every other module reads one through _lattice_read, so the rule for
    # what is a residue lattice lives in one module
    finders = {path.name for path in SOURCE.glob("*.py")
               if calls_lattice_of(ast.parse(path.read_text()))}
    assert finders == {"spectral.py"}


def uses_fft(tree):
    """Whether ``tree`` reaches an fft module: an attribute fft, as in
    np.fft.rfft, or an import of one, which would let it call it by another name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        if "fft" in names:
            return True
    return False


@pytest.mark.parametrize("source", [
    "np.fft.rfft(x)", "numpy.fft.fft(x, axis=0)", "from numpy.fft import rfft as dft",
    "from numpy import fft", "import numpy.fft",
    "def f(x):\n    return scipy.fft.fft(x)"])
def test_the_scan_sees_every_fft_form(source):
    assert uses_fft(ast.parse(source))
    assert not uses_fft(ast.parse(source.replace("fft", "linalg")))


def test_only_spectral_and_the_oracle_take_an_fft():
    # the n^2 mod K residue FFT and the NUFFT live in spectral, and oracle's
    # DST is its own check: no other module grows a second residue FFT
    users = {path.name for path in SOURCE.glob("*.py")
             if uses_fft(ast.parse(path.read_text()))}
    assert users == {"spectral.py", "oracle.py"}


def test_source_stays_within_the_line_budget():
    # the newlines `wc -l` counts
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE.glob("*.py"))
    assert lines <= LINE_BUDGET


README = SOURCE.parents[1] / "README.md"


def defined_names():
    """Each module's stem and the names it binds by def, class or assignment."""
    defined = {}
    for path in SOURCE.glob("*.py"):
        names = defined[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return defined


def undefined_citations(text):
    """The private names ``text`` cites in backticks outside its "## Removed
    API" section that no module defines; ``spectral._x`` must be in spectral."""
    defined = defined_names()
    anywhere = set(defined).union(*defined.values())
    missing = set()
    for section in re.split(r"^(?=## )", text, flags=re.M):
        if section.startswith("## Removed API"):
            continue
        for span in re.findall(r"`([^`\n]+)`", section):
            for qualifier, name in re.findall(r"(?<![\w.])((?:\w+\.)*)(_\w+)", span):
                module = qualifier.rstrip(".").rpartition(".")[2]
                if name not in defined.get(module, anywhere):
                    missing.add(qualifier + name)
    return sorted(missing)


def test_the_citation_scan_sees_a_removed_name():
    text = ("## Notes\n`spectral._no_such_sum` and `x = _no_such_sum(a)`, `_psi_rows`,\n"
            "`spectral._psi_rows`, `universal._psi_rows`, `wellquench._special`\n"
            "## Removed API\n`_gone`\n## Tests\n`_gone_too`\n")
    assert undefined_citations(text) == [
        "_gone_too", "_no_such_sum", "spectral._no_such_sum", "universal._psi_rows"]


def test_readme_cites_only_defined_private_names():
    # a private name README explains must still exist, so that the notes
    # follow the code when a helper is renamed or removed
    assert undefined_citations(README.read_text()) == []
