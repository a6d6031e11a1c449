"""The benchmark's workloads still fit the package they call.

`perfbench/workloads.py` calls sonartkbd through module attributes
(`study.run_study`, `pipeline.spawn_rng`, ...). Every such name is read off
its syntax tree here, so renaming or deleting one shows up in the tests and
not only in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

MODULES = ("evaluate", "noise", "pipeline", "sim", "study")


def test_every_workload_reference_exists():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    refs = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}
    assert {mod for mod, _ in refs} == set(MODULES)
    missing = sorted(f"{mod}.{attr}" for mod, attr in refs
                     if not hasattr(importlib.import_module(f"sonartkbd.{mod}"), attr))
    assert missing == []
