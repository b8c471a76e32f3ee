"""Share components are written only by sharing.py.

Outside sharing.py, code updates a sharing through ShareVector's own
operations (``x[idx] = y``, ``x + y``, ...), never by assigning into one
component array, which would let the two components of a party's pair
drift apart.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _targets(node: ast.AST):
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo.extend(t.elts)
        elif isinstance(t, ast.Starred):
            todo.append(t.value)
        else:
            yield t


def component_writes(root: Path) -> list[str]:
    """``module:line`` of every assignment into ``<expr>.a[...]`` or ``<expr>.b[...]``."""
    hits = []
    for p in sorted((root / "src" / "silosynth").glob("*.py")):
        if p.name == "sharing.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            for t in _targets(node):
                if (isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
                        and t.value.attr in ("a", "b")):
                    hits.append(f"{p.stem}:{t.lineno}")
    return hits


def test_no_component_writes_outside_sharing():
    assert component_writes(ROOT) == []


def test_scan_finds_component_writes(tmp_path):
    pkg = tmp_path / "src" / "silosynth"
    pkg.mkdir(parents=True)
    (pkg / "sharing.py").write_text("x.a[0] = 1\n")
    (pkg / "mod.py").write_text("x.a[0] = 1\ny.b[:, m] += 2\nz.a = 3\nw[0] = x.b[1]\n(u.a[1], v) = 4, 5\n")
    assert component_writes(tmp_path) == ["mod:1", "mod:2", "mod:5"]
