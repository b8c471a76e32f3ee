"""Every top-level function, class and constant in src/silosynth has a production user.

A definition counts as used when its name appears in some src/ module other
than as its own definition, or in a perfbench/ file (which wraps functions
by name). The package's ``__init__.py`` does not count: a re-export in it,
or a name in ``__all__``, is not a use. Tests do not count either: code
that only tests use belongs in tests/. Module-level assignments count as
definitions too, dunders such as ``__all__`` excepted, so that a table
orphaned by a deleted loop fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers a module refers to (names read, attributes, imports)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _defined(tree: ast.Module) -> list[str]:
    """Names a module defines at top level: functions, classes and assigned names."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def unused_definitions(root: Path) -> list[str]:
    trees = {p: ast.parse(p.read_text()) for p in sorted((root / "src" / "silosynth").glob("*.py"))}
    used = set()
    for p, tree in trees.items():
        if p.name != "__init__.py":
            used |= _names(tree)
    for p in sorted((root / "perfbench").rglob("*.py")):
        used |= _names(ast.parse(p.read_text()), strings=True)
    return [f"{p.stem}.{name}" for p, tree in trees.items() for name in _defined(tree)
            if name not in used and not name.startswith("__")]


def test_every_src_definition_has_a_user():
    assert unused_definitions(ROOT) == []
