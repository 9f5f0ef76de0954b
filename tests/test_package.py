"""The package surface: one list of public names per submodule, and demos
that import only names that exist (tier-1 never runs the demos)."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import blochmap
from blochmap import disk, extremal, mapping, optimize, series, support

SUBMODULES = [series, disk, optimize, mapping, extremal, support]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
    for gone in ("sqrt_nonvanishing", "multiply", "scale", "DISK_RADIUS_CAP"):
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
