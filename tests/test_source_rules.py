"""Rules the package source keeps, checked on its text."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "photonstat"


def _matches(pattern, paths):
    """The lines of paths that match the regular expression pattern, as
    'file:line: text'."""
    return [f"{path.name}:{number}: {line}"
            for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def _modules(*skip):
    return [path for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in skip]


def test_accuracy_error_is_the_one_accuracy_failure_type():
    # raise AccuracyError for a float64-range failure
    assert _matches(r"raise OverflowError", sorted(PACKAGE.rglob("*.py"))) == []
    # the CLI catches AccuracyError only
    assert _matches(r"OverflowError", [PACKAGE / "cli.py"]) == []


def test_float64_sums_go_through_the_kernel_module():
    # sum with kernels.checked_fsum or kernels.exact_fsum
    assert _matches(r"math\.fsum", _modules("kernels.py")) == []
    # exact rationals only in kernels.exact_fsum and the two exact
    # references in moments, ladder_sums_exact and antinormal_ladder; redo
    # any other sum in exact rationals with kernels.exact_fsum
    assert _matches(r"(from|import) fractions",
                    _modules("kernels.py", "moments.py")) == []


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name another module needs is public there; dunders such as
    # __version__ are not private
    bad = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").startswith(
                        "photonstat")):
                continue
            bad += [f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not (
                        alias.name.startswith("__")
                        and alias.name.endswith("__"))]
    assert bad == []


def test_no_module_state_is_rebound_after_import():
    # shared tables are lru_cache'd pure functions: no module global is
    # rebound, and nothing needs a lock
    assert _matches(r"^\s*global\s|^\s*(import|from)\s+threading\b",
                    sorted(PACKAGE.rglob("*.py"))) == []
