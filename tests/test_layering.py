"""The import layering of ``src/gni``, pinned by a scan of its syntax trees."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gni"

# Each module's layer: a module imports only modules of its own layer or
# below, at the top of the file or lazily inside a function.
LAYERS = {
    "numerics": 0,
    "lie_so3": 1,
    "model": 1,
    "gni_flat": 2,
    "gni_reduced": 2,
    "analysis": 3,
    "checks": 4,
    "cli": 4,
}


def _imported_modules(tree):
    """The ``gni`` modules a syntax tree imports, with each import's line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .model import ...
                yield node.module.split(".")[0], node.lineno
            elif node.level == 1:  # from . import model, analysis
                yield from ((alias.name, node.lineno) for alias in node.names)
            elif node.level == 0 and node.module and node.module.split(".")[0] == "gni":
                parts = node.module.split(".")
                names = [parts[1]] if len(parts) > 1 else [alias.name for alias in node.names]
                yield from ((name, node.lineno) for name in names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "gni" and len(parts) > 1:
                    yield parts[1], node.lineno


def test_every_module_has_a_layer():
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_no_module_imports_one_above_it():
    upward = []
    for module, layer in LAYERS.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for name, line in _imported_modules(tree):
            assert name in LAYERS, f"{module}.py:{line} imports unknown module {name}"
            if LAYERS[name] > layer:
                upward.append(f"{module}.py:{line} imports {name}")
    assert not upward


def test_the_scan_sees_lazy_and_absolute_imports():
    source = (
        "def f():\n"
        "    from .analysis import run\n"
        "    from . import cli\n"
        "    import gni.checks\n"
        "    from gni import gni_flat\n"
        "    from gni.model import FlatSystem\n"
    )
    found = [name for name, _ in _imported_modules(ast.parse(source))]
    assert found == ["analysis", "cli", "checks", "gni_flat", "model"]
