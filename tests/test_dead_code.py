"""Every top-level function, class and constant in src/silosynth, and every
dataclass field, has a production user.

A definition counts as used when its name appears in some src/ module other
than as its own definition, or in a perfbench/ file (which wraps functions
by name). The package's ``__init__.py`` does not count: a re-export in it,
or a name in ``__all__``, is not a use. Tests do not count either: code
that only tests use belongs in tests/. Module-level assignments count as
definitions too, dunders such as ``__all__`` excepted, so that a table
orphaned by a deleted loop fails here. A dataclass field counts as used
when some src/ module other than ``__init__.py`` reads it as an attribute
(``x.field``), or a perfbench/ file names it.
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


def _dataclass_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) for every annotated field of a top-level @dataclass."""
    def is_dataclass(dec):
        node = dec.func if isinstance(dec, ast.Call) else dec
        return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "dataclass"
    return [(node.name, item.target.id) for node in tree.body
            if isinstance(node, ast.ClassDef) and any(is_dataclass(d) for d in node.decorator_list)
            for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def _sources(root: Path):
    """The src/ module trees, and the names every perfbench/ file mentions."""
    trees = {p: ast.parse(p.read_text()) for p in sorted((root / "src" / "silosynth").glob("*.py"))}
    bench = set()
    for p in sorted((root / "perfbench").rglob("*.py")):
        bench |= _names(ast.parse(p.read_text()), strings=True)
    return trees, bench


def unused_definitions(root: Path) -> list[str]:
    trees, used = _sources(root)
    for p, tree in trees.items():
        if p.name != "__init__.py":
            used |= _names(tree)
    return [f"{p.stem}.{name}" for p, tree in trees.items() for name in _defined(tree)
            if name not in used and not name.startswith("__")]


def unread_fields(root: Path) -> list[str]:
    trees, used = _sources(root)
    for p, tree in trees.items():
        if p.name != "__init__.py":
            used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{p.stem}.{cls}.{field}" for p, tree in trees.items() for cls, field in _dataclass_fields(tree)
            if field not in used]


def test_every_src_definition_has_a_user():
    assert unused_definitions(ROOT) == []


def test_every_dataclass_field_is_read():
    assert unread_fields(ROOT) == []
