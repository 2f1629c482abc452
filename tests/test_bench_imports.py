"""The benchmark's traced passes import public names that no other test
runs; check them statically, so that removing one fails here first."""

import ast
import dataclasses
import importlib
from pathlib import Path

from rbatl import SearchStats

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _imports_from_rbatl(tree):
    """(module, name) per name bench/run.py imports from rbatl or one of
    its modules, with name None for a plain `import rbatl.x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "rbatl"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rbatl":
                    yield alias.name, None


def test_bench_imports_exist():
    found = list(_imports_from_rbatl(ast.parse(RUN.read_text())))
    assert ("rbatl", "sub_ordered") in found  # the walk sees the imports
    missing = [f"{module}.{name}" for module, name in found
               if name is not None
               and not hasattr(importlib.import_module(module), name)]
    for module, _ in found:
        importlib.import_module(module)
    assert not missing


def test_search_stats_keeps_the_traced_counters():
    fields = {f.name for f in dataclasses.fields(SearchStats)}
    assert {"nodes", "max_depth", "pumps", "cache_hits"} <= fields
