"""Every name a package module imports is referenced in that module.

No linter ships with the development tools, so this walks the source with
the standard library's ast.  Names listed in a module's __all__ (the
package's re-exports) and __future__ imports are exempt; every name in the
package's __all__ must itself resolve.
"""

import ast
from pathlib import Path

import pytest

import ncsync

SRC = Path(__file__).resolve().parents[1] / "src" / "ncsync"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from .x import (a, b, c as d)\n"
              "__all__ = ['b']\n"
              "def f(z: d) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["a", "os"]


def test_every_exported_name_resolves():
    assert len(set(ncsync.__all__)) == len(ncsync.__all__)
    assert [name for name in ncsync.__all__ if not hasattr(ncsync, name)] == []
