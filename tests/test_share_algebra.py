"""Share components are written only by sharing.py, re-shared only by
``Party.replicate``, and laid out only by ``Party``.

Outside sharing.py, code updates a sharing through ShareVector's own
operations (``x[idx] = y``, ``x + y``, ...), never by assigning into one
component array, which would let the two components of a party's pair
drift apart. A local additive term becomes a replicated sharing by one
step, sending it to the previous party; only ``Party.replicate`` does that
(``setup_handshake`` also sends its probe there).

Which party holds which component is known to ``Party`` alone
(``const_share``, ``add_public``, ``split``, ``pair_term``): protocol code
reads neither the party id nor a share's components. The party id is read
only by runtime.py, the enclave host (generator.py) and the CLI; the
components only by sharing.py, runtime.py and the gate kernels in
circuits.py.
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


def prev_senders(root: Path) -> list[str]:
    """``module:[Class.]function`` of every src/ function that sends to ``prev_pid``."""
    hits = set()

    def visit(node, stem, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + [child.name] if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("send_words", "send") and child.args
                    and isinstance(child.args[0], ast.Attribute) and child.args[0].attr == "prev_pid"):
                hits.add(f"{stem}:{'.'.join(scope)}")
            visit(child, stem, inner)

    for p in sorted((root / "src" / "silosynth").glob("*.py")):
        visit(ast.parse(p.read_text()), p.stem, [])
    return sorted(hits)


def test_only_replicate_sends_to_prev():
    assert prev_senders(ROOT) == ["runtime:Party.replicate", "runtime:setup_handshake"]


def test_scan_finds_prev_senders(tmp_path):
    pkg = tmp_path / "src" / "silosynth"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "def f(party, z):\n    party.send_words(party.prev_pid, z)\n"
        "def g(party, z):\n    party.send_words(party.next_pid, z)\n"
        "class P:\n    def h(self, z):\n"
        "        def inner():\n            self.transport.send(self.prev_pid, 0, z)\n"
    )
    assert prev_senders(tmp_path) == ["mod:P.h.inner", "mod:f"]


PID_READERS = ("runtime", "generator", "cli")
COMPONENT_READERS = ("sharing", "runtime", "circuits")


def attribute_reads(root: Path, attrs, allowed) -> list[str]:
    """``module:line`` of every ``<expr>.<attr>``, attr in ``attrs``, in a src/
    module whose stem is not in ``allowed``."""
    hits = []
    for p in sorted((root / "src" / "silosynth").glob("*.py")):
        if p.stem in allowed:
            continue
        lines = sorted(node.lineno for node in ast.walk(ast.parse(p.read_text()))
                       if isinstance(node, ast.Attribute) and node.attr in attrs)
        hits += [f"{p.stem}:{line}" for line in lines]
    return hits


def test_only_runtime_generator_and_cli_read_the_party_id():
    assert attribute_reads(ROOT, {"pid"}, PID_READERS) == []


def test_only_sharing_runtime_and_circuits_read_components():
    assert attribute_reads(ROOT, {"a", "b"}, COMPONENT_READERS) == []


def test_scan_finds_attribute_reads(tmp_path):
    pkg = tmp_path / "src" / "silosynth"
    pkg.mkdir(parents=True)
    (pkg / "runtime.py").write_text("p.pid\nx.a\n")
    (pkg / "mod.py").write_text("if party.pid == 1:\n    y = x.a + x.b\nz = f(w).b[0]\nv.ab = pid\nu.a = 3\n")
    assert attribute_reads(tmp_path, {"pid"}, PID_READERS) == ["mod:1"]
    assert attribute_reads(tmp_path, {"a", "b"}, COMPONENT_READERS) == ["mod:2", "mod:2", "mod:3", "mod:5"]
