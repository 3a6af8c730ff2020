"""The package's modules import only from lower layers, so that, e.g.,
the model zoo never reaches up into the checker layer, and every cubic
resample runs through one helper."""

import ast
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import renyi_lab

LAYERS = {
    "errors": 0, "reports": 0, "zoo": 0,
    "grids": 1,
    "divergences": 2, "hermite": 2, "models": 2,
    "edgeworth": 3, "subgauss": 3,
    "cli": 4,
}


def _package_imports(path: Path):
    """Modules of the package named by a relative or absolute import
    anywhere in the file, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node.module.split(".")[0]
            elif node.level == 1:
                yield from (alias.name for alias in node.names)
            elif node.module and node.module.startswith("renyi_lab."):
                yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("renyi_lab."))


def test_imports_follow_layer_order():
    src = Path(renyi_lab.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.stem != "__init__")
    assert {p.stem for p in modules} == set(LAYERS)
    upward = [(p.stem, target) for p in modules for target in _package_imports(p)
              if LAYERS[target] >= LAYERS[p.stem]]
    assert upward == []


def _imported_modules(path: Path):
    """Top-level names of every module imported anywhere in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)


def test_no_module_imports_scipy():
    # scipy is a test dependency: the package runs on numpy and the stdlib
    src = Path(renyi_lab.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "scipy" in _imported_modules(p)] == []


@functools.lru_cache(maxsize=None)
def _uses(paths: tuple) -> dict:
    """name -> (module, innermost enclosing function) of every use of the
    name in the files at `paths`, as a plain name or an attribute, calls
    or not; the module is the file's stem."""
    found = {}

    class Uses(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Name(self, node):
            found.setdefault(node.id, []).append((self.module, self.scope[-1]))

        def visit_Attribute(self, node):
            found.setdefault(node.attr, []).append((self.module, self.scope[-1]))
            self.generic_visit(node)

        def visit_alias(self, node):
            if node.asname not in (None, node.name):
                found.setdefault(node.name, []).append(
                    (self.module, f"import as {node.asname}"))

    for path in paths:
        Uses(path.stem).visit(ast.parse(path.read_text()))
    return found


def _references(name: str, paths=None):
    """`_uses` of `name` in the files at `paths`, the package's modules
    by default."""
    if paths is None:
        paths = sorted(Path(renyi_lab.__file__).parent.glob("*.py"))
    return _uses(tuple(paths)).get(name, [])


def test_one_resample_path():
    # every cubic resample (p_n, gaussian_smooth) goes through one
    # windowed helper; the numeric K profile is the spline's only other use
    assert sorted(_references("_spline")) == [("grids", "_spline_at"), ("subgauss", "profile")]


def _exports():
    """(module, name) of every name the package __init__ imports from a
    submodule, eager or lazy."""
    tree = ast.parse(Path(renyi_lab.__file__).read_text())
    return sorted((node.module, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                  for alias in node.names)


# exports that only the tests checking them reach, and why each stays
TEST_ONLY_EXPORTS = {
    "gaussian_smooth": "the heat flow behind the de Bruijn and heat-flow tests "
                       "of the divergences and the Parseval chi-square",
    "edgeworth_density": "the corrected density that the local-limit remainder "
                         "of p_n is to be measured against",
    "pointwise_density_bound_check": "the pointwise tail bound that the high-order "
                                     "Renyi and D_inf values are to report",
    "moment_summary": "the tests' tool for the moments of a grid density",
}


def test_every_export_has_a_use():
    # a public name is reached by another package module, the benchmark
    # or an acceptance criterion, not only by the unit tests of itself
    root = Path(__file__).resolve().parents[1]
    files = [*sorted(Path(renyi_lab.__file__).parent.glob("*.py")),
             *sorted((root / "perfbench").glob("*.py")), root / "tests" / "test_acceptance.py"]
    unused = [name for _, name in _exports() if name not in TEST_ONLY_EXPORTS
              and not any(module != "__init__" and scope != name
                          for module, scope in _references(name, files))]
    assert not unused, f"only their own unit tests reach {unused}"
    assert set(TEST_ONLY_EXPORTS) <= {name for _, name in _exports()}


@pytest.mark.parametrize("access", ["attribute", "from-import"])
def test_lazy_exports_resolve_to_their_submodules(access):
    # the API loads on first use; either way of asking gives the
    # submodule's own object, and the bare import loads no numpy
    exports = _exports()
    assert len(exports) == 62
    names = ", ".join(name for _, name in exports)
    first = (f"from renyi_lab import {names}\ngot = [{names}]" if access == "from-import"
             else "got = [getattr(renyi_lab, name) for _, name in exports]")
    code = f"""
import importlib, json, sys
import renyi_lab
assert "numpy" not in sys.modules
exports = {exports!r}
{first}
bad = [name for (mod, name), obj in zip(exports, got)
       if obj is not getattr(importlib.import_module("renyi_lab." + mod), name)]
bad += [name for name in ("run_experiment",)
        if getattr(renyi_lab, name) is not getattr(importlib.import_module("renyi_lab.cli"), name)]
print(json.dumps(bad))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
