"""The benchmark's tracer wraps silosynth functions by (module, function)
name: ``perfbench/tracing.py`` calls ``getattr`` on every span it lists, and
``perfbench/layers.py`` reports per-layer metrics for them. A renamed or
removed function breaks ``perfbench/run.py --trace 1``; this catches it in
the repository's own tests."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import tracing  # noqa: E402


def test_traced_functions_resolve():
    names = sorted({(mod, fn) for mod, fns, _ in layers.LAYERS for fn in fns}
                   | {(mod, fn) for mod, fn, _, _ in tracing.SPANS})
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"silosynth.{mod}"), fn, None))]
    assert missing == []


def test_every_layer_is_traced():
    spans = {(mod, fn) for mod, fn, _, _ in tracing.SPANS}
    assert {(mod, fn) for mod, fns, _ in layers.LAYERS for fn in fns} <= spans
