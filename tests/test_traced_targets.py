"""The traced benchmark run finds every library function it reads by name.

``perfbench/layers.py`` names the functions that its per-layer metrics
read; a rename in the library stops the traced run with ``MissingTarget``.
Loading it here turns such a rename into a failing test.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_traced_run_finds_every_target():
    layers = load_layers()
    modules = {name: importlib.import_module(name) for name in layers.LAYERS.values()}
    targets = layers.targets(modules)  # raises MissingTarget on a rename
    assert set(layers.NAMED) <= set(targets)
    assert layers.Counters().patches(modules)
