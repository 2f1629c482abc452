"""The benchmark's traced passes import public names that no other test
runs; check them statically, so that removing one fails here first."""

import ast
import dataclasses
import importlib
from pathlib import Path

from rbatl import TRUE, Prop, SearchStats, atl_label, parse_formula

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


def _attributes_of_rbatl_modules(tree):
    """(module, name) per attribute bench/run.py reads off an rbatl module
    by its dotted path, such as `rbatl.atl.pre`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts, value = [node.attr], node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id == "rbatl" and parts[1:]:
            *path, name = ["rbatl", *reversed(parts)]
            yield ".".join(path), name


def test_bench_module_attributes_exist():
    found = set(_attributes_of_rbatl_modules(ast.parse(RUN.read_text())))
    assert ("rbatl.atl", "pre") in found  # the traced rebuild patches it
    missing = [f"{module}.{name}" for module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_atl_label_labels_the_unbounded_modalities(fig1):
    # the traced rebuild labels every all-INF modality with atl_label
    labels = {TRUE: fig1.state_set(), Prop("p"): frozenset({"s_prime"})}
    until = parse_formula("<{a1}: inf,inf> (true U p)")
    always = parse_formula("<{a1,a2}: inf,inf> G !p")
    labels[always.child] = fig1.state_set() - labels[Prop("p")]
    assert atl_label(fig1, until, labels) == fig1.state_set()
    assert atl_label(fig1, always, labels) == frozenset({"s_I", "s"})


def test_search_stats_keeps_the_traced_counters():
    fields = {f.name for f in dataclasses.fields(SearchStats)}
    assert {"nodes", "max_depth", "pumps", "cache_hits"} <= fields
