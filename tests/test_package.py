"""The package surface: one list of public names per submodule, no unused
import in the package's modules, disk geometry below every other module
but series, and demos that import only names that exist (tier-1 never
runs the demos)."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import blochmap
from blochmap import disk, extremal, mapping, optimize, series, support

SUBMODULES = [series, disk, optimize, mapping, extremal, support]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SOURCES = sorted(Path(blochmap.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("module", SUBMODULES, ids=lambda m: m.__name__)
def test_every_submodule_export_is_the_package_attribute(module):
    # the tracer swaps functions by identity in every namespace, the package's included
    for name in module.__all__:
        assert getattr(blochmap, name) is getattr(module, name), name


def test_package_exports_exactly_the_submodule_lists():
    exported = {name for name, value in vars(blochmap).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    listed = set().union(*(m.__all__ for m in SUBMODULES))
    assert exported == listed
    assert len(listed) == sum(len(m.__all__) for m in SUBMODULES)
    for gone in ("sqrt_nonvanishing", "multiply", "scale", "DISK_RADIUS_CAP",
                 "coefficient_conditions", "CoefficientConditions", "rotation_normalize"):
        assert gone not in exported


def test_demos_import_only_existing_names():
    assert len(DEMOS) == 5
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("blochmap"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("blochmap"):
                        importlib.import_module(alias.name)


def imported_names(tree):
    # the names bound by import statements, star and __future__ imports aside
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name


def used_names(tree):
    # every name read, plus the strings a module lists in __all__
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            for elt in node.value.elts:
                yield elt.value


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_modules_import_nothing_unused(path):
    tree = ast.parse(path.read_text(), str(path))
    unused = set(imported_names(tree)) - set(used_names(tree))
    assert not unused, f"{path.name}: {sorted(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_instance_dicts_hold_only_the_beta_memo(path):
    # state between mappings lives in declared fields: vars(...) may only
    # read or fill the _estimate memo, by subscript, .get or `in`
    tree = ast.parse(path.read_text(), str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def is_memo(node):
        return isinstance(node, ast.Constant) and node.value == "_estimate"

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars"):
            continue
        up = parents[node]
        keyed = ((isinstance(up, ast.Subscript) and up.value is node and is_memo(up.slice))
                 or (isinstance(up, ast.Attribute) and up.attr == "get"
                     and isinstance(parents[up], ast.Call) and parents[up].args
                     and is_memo(parents[up].args[0]))
                 or (isinstance(up, ast.Compare) and up.comparators[-1] is node
                     and isinstance(up.ops[-1], (ast.In, ast.NotIn)) and is_memo(up.left)))
        assert keyed, f"{path.name}:{node.lineno}: vars() not keyed on '_estimate'"


def test_disk_geometry_sits_below_the_analyses():
    # disk.py's module level imports only series, so every module can read
    # its one copy of 1 - |z|^2, of the pseudo-hyperbolic distance and of sinh rho
    tree = ast.parse(Path(disk.__file__).read_text(), disk.__file__)
    modules = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("blochmap"):
                modules.add((node.module or "").rpartition(".")[2])
        elif isinstance(node, ast.Import):
            modules.update(a.name.rpartition(".")[2] for a in node.names
                           if a.name.startswith("blochmap"))
    assert modules == {"series"}
    for name in ("_disk_weight", "_pseudo_distance", "_sinh_distance"):
        holders = [m for m in (optimize, mapping, extremal, support) if hasattr(m, name)]
        assert holders, name
        for module in holders:
            assert getattr(module, name) is getattr(disk, name), (module.__name__, name)
