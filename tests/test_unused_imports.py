"""No module of the package imports a name it never reads, or a slow module.

No linter is part of the toolchain, so these stdlib ``ast`` passes stand in
for the checks that refactors most often break: an import left behind, and
``scipy.stats`` or ``scipy.integrate`` (about 0.8 s to import), which no path
of the package needs, brought back into ``src/``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aptest"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_flags_only_unread_names():
    source = "from __future__ import annotations\nimport os\nimport os.path as osp\n" \
             "import numpy.linalg\nfrom math import pi, tau\n" \
             "def f(x: numpy.ndarray) -> None:\n    return osp.join(tau)\n"
    assert unused_imports(source) == ["os", "pi"]


# the package's __init__ imports are its public API, re-exported through __all__
@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


SLOW_MODULES = ("scipy.stats", "scipy.integrate")


def slow_imports(source: str) -> list[tuple[str | None, tuple[str, ...]]]:
    """(enclosing function, enclosing branches) of each import of one of ``SLOW_MODULES``.

    A branch is the source of an enclosing ``if`` test, prefixed ``not ``
    inside its ``else`` part.
    """
    found = []

    def visit(node, function, branches):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        if any(n == m or n.startswith(m + ".") for n in names for m in SLOW_MODULES):
            found.append((function, tuple(branches)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.If):
            test = ast.unparse(node.test)
            for child in node.body:
                visit(child, function, [*branches, test])
            for child in node.orelse:
                visit(child, function, [*branches, "not " + test])
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function, branches)

    visit(ast.parse(source), None, [])
    return found


def test_slow_import_checker_sees_every_form():
    source = (
        "import scipy.stats\nfrom scipy import integrate\n"
        "def f(x):\n    if x:\n        from scipy.stats import beta\n"
        "    else:\n        import scipy.integrate as si\n"
        "    from scipy import special\n"
    )
    assert slow_imports(source) == [
        (None, ()), (None, ()), ("f", ("x",)), ("f", ("not x",))
    ]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.parent.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE.parent))
)
def test_slow_modules_imported_nowhere(path):
    assert slow_imports(path.read_text(encoding="utf-8")) == []
