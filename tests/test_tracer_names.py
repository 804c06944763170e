"""The benchmark's per-layer tracer (perfbench/tracer.py) looks up each
function it wraps by name, so removing or renaming one breaks
`perfbench/run.py --trace 1`.  This checks every name it lists."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layer_functions() -> dict:
    """LAYER_FUNCTIONS as written in the tracer's source, read without
    importing or executing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("LAYER_FUNCTIONS not found in perfbench/tracer.py")


def test_every_traced_function_exists():
    layers = _layer_functions()
    assert layers
    missing = []
    for key, (module, names) in layers.items():
        mod = importlib.import_module(f"treepack.{module}")
        if names is None:
            # the tracer wraps every build_* function of the module
            names = [a for a in vars(mod) if a.startswith("build_")]
            if not names:
                missing.append(f"{key}: no build_* function in treepack.{module}")
        missing += [f"{key}: treepack.{module}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert not missing
