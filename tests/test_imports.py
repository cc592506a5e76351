"""Every name a module of the package imports is used in that module.

A use is an `ast.Name` anywhere in the module, `x` of `x.attr` included.
`__init__.py` imports to re-export, so it is exempt, and so are
`from __future__` imports and import lines marked `# noqa`.
"""

import ast
from pathlib import Path

import pytest

import permderiv

MODULES = sorted(p for p in Path(permderiv.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep  # noqa\nimport numpy as np\nnp.ones(1)\n"
    assert unused_imports(source) == ["math (line 2)"]
