"""The names the benchmark in perfbench/ reaches for must keep existing."""

import ast
import dataclasses
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the files that call into the program, and the modules they bind by name
CALLERS = ("workloads.py", "oracle_check.py")
MODULES = ("cli", "fixedlocus", "forms", "lifts", "pi1")


def _layers():
    """The LAYERS table of perfbench/layers.py, read without importing it."""
    for node in ast.parse((PERFBENCH / "layers.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in perfbench/layers.py")


def _used_names(path):
    """(module, name) for every module.name and every from kodaira.module
    import name in the file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in MODULES:
            out.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kodaira."):
            out.update((node.module[len("kodaira."):], a.name) for a in node.names)
    return out


def test_traced_layers_exist():
    missing = [f"{module}.{name}" for module, names in _layers().items()
               for name in names
               if not hasattr(importlib.import_module(f"kodaira.{module}"), name)]
    assert missing == []


def test_every_name_the_benchmark_calls_exists():
    used = set().union(*(_used_names(PERFBENCH / name) for name in CALLERS))
    assert ("lifts", "deck_lift") in used and ("pi1", "from_exponents") in used
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(f"kodaira.{module}"), name))
    assert missing == []


def test_special_lift_fields():
    # perfbench builds SpecialLift(alpha, beta, sigma10, v) positionally
    from kodaira.lifts import SpecialLift
    names = tuple(f.name for f in dataclasses.fields(SpecialLift))
    assert names == ("alpha", "beta", "sigma10", "v")


def test_workload_sampler_imports():
    # perfbench/workloads.py builds its lift sampler from these two
    from kodaira.lifts import canonical_unit, unit_group_order
    assert callable(canonical_unit) and callable(unit_group_order)
