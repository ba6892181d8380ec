"""No module of the package imports a name it never reads.

No linter is part of the toolchain, so this stdlib ``ast`` pass stands in
for the one check that refactors most often leave behind.
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
