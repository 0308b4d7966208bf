"""The package's modules form layers: each imports only the ones below it."""

import ast
from pathlib import Path

import cvdcnet
from cvdcnet import cli_scan, scan_text

# lowest first
LAYERS = ["phase_space", "resource_prep", "dc_protocol", "advantage_analysis", "scan_text",
          "cli_scan"]
PACKAGE = Path(cvdcnet.__file__).parent


def _imported_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each name a module imports from a cvdcnet module, function
    bodies included; a whole module imported is (module, '*')."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cvdcnet")):
            parts = (node.module or "").split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                found.update((parts[0], alias.name) for alias in node.names)
            else:
                found.update((alias.name, "*") for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update((alias.name.split(".")[1], "*") for alias in node.names
                         if alias.name.startswith("cvdcnet."))
    return found


def _package_imports(tree: ast.Module) -> set[str]:
    """The cvdcnet modules a module imports anywhere, function bodies included."""
    return {module for module, _ in _imported_names(tree)}


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
from cvdcnet.scan_text import round12
from cvdcnet import advantage_analysis
import numpy
from numpy import linalg

def lazy():
    from .advantage_analysis import classical_capacity
"""
    assert _package_imports(ast.parse(source)) == set(LAYERS)


def test_the_text_layer_imports_only_the_scan_and_its_grid():
    allowed = {("advantage_analysis", name) for name in
               ("RegionScan", "_CHUNK_ROWS", "_grid_index", "_grid_points", "_grid_taus")}
    allowed.add(("resource_prep", "CONVENTION_FINGERPRINT"))
    imported = _imported_names(ast.parse(Path(scan_text.__file__).read_text()))
    assert imported <= allowed, sorted(imported - allowed)


def test_the_cli_uses_no_private_name_of_the_text_layer():
    tree = ast.parse(Path(cli_scan.__file__).read_text())
    imported = {name for module, name in _imported_names(tree) if module == "scan_text"}
    assert imported and not [name for name in imported if name.startswith("_")], imported
    bound = [alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.module or "").endswith("scan_text") for alias in node.names
             if (alias.asname or "").startswith("_")]
    reached = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "scan_text"]
    assert bound == [] and reached == [], (bound, reached)
    private = {id(value) for name, value in vars(scan_text).items()  # its own functions, classes
               if name.startswith("_") and getattr(value, "__module__", "") == scan_text.__name__}
    assert [name for name, value in vars(cli_scan).items() if id(value) in private] == []


def test_the_name_walk_sees_every_spelling():
    source = """
from .advantage_analysis import RegionScan, _grid_index
from . import dc_protocol
import cvdcnet.phase_space
from cvdcnet.resource_prep import CONVENTION_FINGERPRINT as FP
import numpy

def lazy():
    from .scan_text import _spelled
"""
    assert _imported_names(ast.parse(source)) == {
        ("advantage_analysis", "RegionScan"), ("advantage_analysis", "_grid_index"),
        ("dc_protocol", "*"), ("phase_space", "*"), ("resource_prep", "CONVENTION_FINGERPRINT"),
        ("scan_text", "_spelled"),
    }
