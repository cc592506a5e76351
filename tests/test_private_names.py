"""Every private module-level name of the package is used somewhere in the package.

A private name is a module-level function, class or assignment target that
starts with one underscore.  A use is an `ast.Name` or the `attr` of an
`ast.Attribute` anywhere in the package outside the name's own definition,
so a helper that only calls itself, or is only imported, counts as unused.
"""

import ast
from pathlib import Path

import permderiv

MODULES = sorted(Path(permderiv.__file__).parent.glob("*.py"))


def _defined(node) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    definitions, uses = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            for name in _defined(node):
                if name.startswith("_") and not name.startswith("__"):
                    definitions[name] = f"{module}:{node.lineno}"
            for inner in ast.walk(node):
                used = inner.id if isinstance(inner, ast.Name) else getattr(inner, "attr", None)
                if used and used not in _defined(node):
                    uses.append(used)
    return sorted(f"{name} ({where})" for name, where in definitions.items() if name not in uses)


def test_every_private_name_is_used():
    assert unused_private_names({p.name: p.read_text() for p in MODULES}) == []


def test_an_unused_private_name_is_found():
    sources = {
        "a.py": "_LIMIT = 3\n_TABLE: dict = {}\n\n\ndef _loop(n):\n    return _loop(n - 1) if n else _LIMIT\n\n\n"
                "class _Unused:\n    pass\n\n\ndef _helper():\n    return 1\n\n\ndef __getattr__(name):\n    pass\n",
        "b.py": "from a import _helper, _loop\n\n\ndef public():\n    return _helper() + _TABLE.get(1, 0)\n",
    }
    assert unused_private_names(sources) == ["_Unused (a.py:9)", "_loop (a.py:5)"]
