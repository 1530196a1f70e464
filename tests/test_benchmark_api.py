"""The names the benchmark in perfbench/ reaches for must keep existing."""

import ast
import importlib
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    """The LAYERS table of perfbench/layers.py, read without importing it."""
    for node in ast.parse(LAYERS_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in perfbench/layers.py")


def test_traced_layers_exist():
    missing = [f"{module}.{name}" for module, names in _layers().items()
               for name in names
               if not hasattr(importlib.import_module(f"kodaira.{module}"), name)]
    assert missing == []


def test_workload_sampler_imports():
    # perfbench/workloads.py builds its lift sampler from these two
    from kodaira.lifts import canonical_unit, unit_group_order
    assert callable(canonical_unit) and callable(unit_group_order)
