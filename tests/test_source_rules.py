"""Rules on the package source itself, read as text.

* Every ``import`` in ``src/rhizalab`` names a module of the standard
  library (``sys.stdlib_module_names``) or the package itself: the runtime
  dependencies stay ``dependencies = []``.
* No line of the package or of ``tests/*.py`` is over 120 characters.
* No two modules of ``tests/*.py`` define a top-level function alike (the
  same name and the same ``ast.dump``): one helper per test input.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "rhizalab").rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MAX_LINE = 120


def _imported_roots(tree: ast.AST) -> set[str]:
    """The top-level module of every absolute import in ``tree``; a relative import is the package's own."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_the_rules_read_the_whole_package():
    names = {path.name for path in SOURCES}
    assert {"__init__.py", "axioms.py", "operators.py", "cli.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_the_standard_library_or_the_package(path):
    roots = _imported_roots(ast.parse(path.read_text(), str(path)))
    assert roots - set(sys.stdlib_module_names) - {"rhizalab"} == set()


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=lambda path: path.name if path in SOURCES else f"tests/{path.name}"
)
def test_no_line_is_over_the_limit(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert long == []


def test_the_import_rule_refuses_a_third_party_module():
    tree = ast.parse("import json\nfrom . import axioms\nfrom numpy.linalg import solve\nimport rhizalab.cli")
    assert _imported_roots(tree) - set(sys.stdlib_module_names) - {"rhizalab"} == {"numpy"}


def _copies(sources: dict[str, str]) -> set[str]:
    """The name of each top-level function that two of ``sources`` (file name -> text) define alike."""
    first, copies = {}, set()
    for name, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and first.setdefault(ast.dump(node), name) != name:
                copies.add(node.name)
    return copies


def test_no_test_module_copies_another_ones_function():
    assert _copies({path.name: path.read_text() for path in TESTS}) == set()


def test_the_copy_rule_refuses_a_planted_copy():
    sources = {path.name: path.read_text() for path in TESTS}
    conftest = sources["conftest.py"]
    helper = next(node for node in ast.parse(conftest).body if getattr(node, "name", None) == "sum_mono")
    sources["planted.py"] = "import json\n\n\n" + ast.get_source_segment(conftest, helper)
    assert _copies(sources) == {"sum_mono"}
