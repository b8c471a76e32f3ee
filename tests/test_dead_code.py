"""Every top-level function and class in src/silosynth has a production user.

A definition counts as used when its name appears in some src/ module other
than as its own definition, in a perfbench/ file (which wraps functions by
name), or in ``silosynth.__all__``. Tests do not count: code that only tests
use belongs in tests/.
"""

import ast
from pathlib import Path

import silosynth

ROOT = Path(__file__).resolve().parent.parent


def _names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers a module refers to (names, attributes, imports)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unused_definitions(root: Path) -> list[str]:
    trees = {p: ast.parse(p.read_text()) for p in sorted((root / "src" / "silosynth").glob("*.py"))}
    used = set(silosynth.__all__)
    for tree in trees.values():
        used |= _names(tree)
    for p in sorted((root / "perfbench").rglob("*.py")):
        used |= _names(ast.parse(p.read_text()), strings=True)
    return [f"{p.stem}.{node.name}" for p, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]


def test_every_src_definition_has_a_user():
    assert unused_definitions(ROOT) == []
