"""The package's modules form layers: each imports only the ones below it."""

import ast
from pathlib import Path

import cvdcnet

# lowest first
LAYERS = ["phase_space", "resource_prep", "dc_protocol", "advantage_analysis", "cli_scan"]
PACKAGE = Path(cvdcnet.__file__).parent


def _package_imports(tree: ast.Module) -> set[str]:
    """The cvdcnet modules a module imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("cvdcnet"):
                continue
            parts = module.split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, from cvdcnet import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("cvdcnet."))
    return found


def test_the_package_is_the_layers_and_its_entry_points():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert modules == sorted(LAYERS + ["__init__", "__main__"])


def test_each_module_imports_only_lower_layers():
    for depth, name in enumerate(LAYERS):
        imports = _package_imports(ast.parse((PACKAGE / f"{name}.py").read_text()))
        assert imports <= set(LAYERS[:depth]), (name, sorted(imports - set(LAYERS[:depth])))


def test_the_import_walk_sees_every_spelling():
    source = """
from .dc_protocol import capacity
from . import phase_space
import cvdcnet.resource_prep
from cvdcnet.cli_scan import main
from cvdcnet import advantage_analysis
import numpy
from numpy import linalg

def lazy():
    from .advantage_analysis import classical_capacity
"""
    assert _package_imports(ast.parse(source)) == set(LAYERS)
