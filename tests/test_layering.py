"""The package's modules import only from lower layers, so that, e.g.,
the model zoo never reaches up into the checker layer, and every cubic
resample runs through one helper."""

import ast
from pathlib import Path

import renyi_lab

LAYERS = {
    "errors": 0, "reports": 0,
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


def _references(name: str):
    """(module, innermost enclosing function) of every use of `name` in
    the package, as a plain name or an attribute, calls or not."""
    found = []

    class Uses(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Name(self, node):
            if node.id == name:
                found.append((self.module, self.scope[-1]))

        def visit_Attribute(self, node):
            if node.attr == name:
                found.append((self.module, self.scope[-1]))
            self.generic_visit(node)

        def visit_alias(self, node):
            if node.name == name and node.asname not in (None, name):
                found.append((self.module, f"import as {node.asname}"))

    src = Path(renyi_lab.__file__).parent
    for path in sorted(src.glob("*.py")):
        Uses(path.stem).visit(ast.parse(path.read_text()))
    return found


def test_one_resample_path():
    # every cubic resample (p_n, gaussian_smooth) goes through one
    # windowed helper; the numeric K profile is the spline's only other use
    assert sorted(_references("_spline")) == [("grids", "_spline_at"), ("subgauss", "profile")]
