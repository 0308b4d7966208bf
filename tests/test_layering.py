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


# --- dead code: no import a module never reads, no private name that nothing in src/ uses ---

def _read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: loads, and the names inside string annotations."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for text in ast.walk(annotation) if annotation else ():
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    names |= _read_names(ast.parse(text.value, mode="eval"))
    return names


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports at its top level and never reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - _read_names(tree))


def _private_definitions(tree: ast.Module) -> set[str]:
    """The module's top-level private defs, classes and assignments (no dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """The names a module reads, reaches as attributes or imports from another module."""
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return _read_names(tree) | attributes | imported


def _unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    referenced = set().union(*map(_references, trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) - referenced)


_TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_import_is_read_in_its_module():
    unused = {module: _unused_imports(tree) for module, tree in _TREES.items()
              if module != "__init__"}
    assert {module: names for module, names in unused.items() if names} == {}


def test_every_private_name_is_used_in_the_package():
    assert _unreferenced_privates(_TREES) == []


def test_the_dead_code_walk_sees_each_kind():
    used_here = """
from __future__ import annotations
import os.path
import numpy as np
from typing import Optional, Sequence
from .phase_space import _real, _shown

_CAP = 3
_LEFT, _RIGHT = 1, 2

def _helper(x: Sequence[int]) -> "Optional[np.ndarray]":
    return _real(x) + _LEFT

class _Unused:
    pass
"""
    used_there = "from .here import _CAP\n"
    tree = ast.parse(used_here)
    assert _unused_imports(tree) == ["_shown", "os"]
    assert _private_definitions(tree) == {"_CAP", "_LEFT", "_RIGHT", "_helper", "_Unused"}
    assert _unreferenced_privates({"here": tree, "there": ast.parse(used_there)}) == [
        "here._RIGHT", "here._Unused", "here._helper"]


# --- no private option with one value: every default of a private signature is passed ---

def _defaulted_signatures(tree: ast.Module) -> dict[str, tuple[list[str], set[str]]]:
    """name: (positional parameters, defaulted parameters) of each private function or
    method, and of each private class's __init__ under the class's name; self is dropped."""
    found, methods = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name if item.name == "__init__" else item.name
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    methods[item] = (name, 0 if static else 1)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, skip = methods.get(node, (node.name, 0))
            if not name.startswith("_") or name.startswith("__"):
                continue
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args][skip:]
            defaulted = set(positional[len(positional) - len(args.defaults):]
                            if args.defaults else ())
            defaulted |= {arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None}
            if defaulted:
                found[name] = (positional, defaulted)
    return found


def _unpassed_defaults(trees: dict[str, ast.Module]) -> list[str]:
    """module.name.parameter for each default that no call anywhere in trees passes, by
    position or by keyword: an option that only ever takes one value."""
    signatures = {(module, name): signature for module, tree in trees.items()
                  for name, signature in _defaulted_signatures(tree).items()}
    passed = {}
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
            for (_, callee), (positional, _) in signatures.items():
                if callee == name:
                    given = passed.setdefault(callee, set())
                    given.update(positional[:len(call.args) if not starred else None])
                    given.update(kw.arg or "**" for kw in call.keywords)
    return sorted(f"{module}.{name}.{param}" for (module, name), (positional, defaulted)
                  in signatures.items() for param in defaulted
                  if param not in passed.get(name, ()) and "**" not in passed.get(name, ()))


def test_every_default_of_a_private_signature_is_passed_in_the_package():
    # a default that no call passes is a constant dressed as an option
    assert _unpassed_defaults(_TREES) == []


def test_the_unpassed_default_walk_sees_each_kind():
    source = """
def _kept(a, b=1, *, c=2):
    return a

def _constant(a, flag=False):
    return a

def public(a, b=1):
    return a

class _Box:
    def __init__(self, size, fill=0.0, grain=1):
        self._grow(by=2)

    def _grow(self, by=1, step=1):
        return by

    @staticmethod
    def _make(n=1, m=2):
        return n

class Open:
    def __init__(self, x=1):
        pass

def _spread(a=1, b=2):
    return a

def use(box, args, options):
    _kept(1, 2)
    _kept(1, c=3)
    _constant(1)
    _Box(3, grain=2)
    box._make(5)
    _spread(*args)
    _kept(**options)
    public(1)
    Open()
"""
    assert set(_defaulted_signatures(ast.parse(source))) == {
        "_kept", "_constant", "_Box", "_grow", "_make", "_spread"}
    assert _unpassed_defaults({"m": ast.parse(source)}) == [
        "m._Box.fill", "m._constant.flag", "m._grow.step", "m._make.m"]
