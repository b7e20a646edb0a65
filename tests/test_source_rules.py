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


def test_criteria_sum_only_in_the_evaluator():
    # every criterion is an entry of criteria's table, and one evaluator
    # forms and sums its products, so no criterion grows its own loop
    tree = ast.parse((PACKAGE / "criteria.py").read_text())

    def sums(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and "checked_fsum" in (getattr(call.func, "id", None),
                                       getattr(call.func, "attr", None))]
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert [name for name, node in functions.items() if sums(node)] == [
        "_evaluate"]
    # and none at module level
    assert len(sums(tree)) == len(sums(functions["_evaluate"]))


def test_cli_writes_stdout_only_through_emit():
    # every byte the CLI prints goes through cli._emit, whose one except
    # turns output that cannot be written, stdout included, into one line
    # and exit 1; print is for the one-line messages on stderr
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    emit = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    inside = {id(node) for node in ast.walk(emit)}
    stdout = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "stdout"
              and getattr(node.value, "id", None) == "sys"
              and id(node) not in inside]
    assert stdout == []
    prints = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "print"
              and not any(kw.arg == "file"
                          and ast.unparse(kw.value) == "sys.stderr"
                          for kw in node.keywords)]
    assert prints == []
