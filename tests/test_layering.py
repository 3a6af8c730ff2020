"""The package's modules import only from lower layers, so that, e.g.,
the model zoo never reaches up into the checker layer."""

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
