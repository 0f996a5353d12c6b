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


# The stepper records that ``analysis.run`` steps by their ``kernel``: it
# reads them by that contract, not by their class.
KERNEL_RECORDS = {"FlatStepper", "RK4", "ReducedStepper", "DiscreteLagrangian"}


def _isinstance_classes(tree):
    """The class names each ``isinstance`` call of a syntax tree tests
    against, bare or as attributes, alone or in a tuple, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            for part in ast.walk(node.args[1]):
                if isinstance(part, ast.Name):
                    yield part.id, node.lineno
                elif isinstance(part, ast.Attribute):
                    yield part.attr, node.lineno


def test_analysis_tests_no_kernel_record_by_class():
    tree = ast.parse((SRC / "analysis.py").read_text())
    found = [f"analysis.py:{line} isinstance of {name}"
             for name, line in _isinstance_classes(tree) if name in KERNEL_RECORDS]
    assert not found


def test_the_isinstance_scan_sees_attributes_and_tuples():
    source = (
        "isinstance(s, gni_reduced.ReducedStepper)\n"
        "isinstance(s, (gni_flat.FlatStepper, model.RK4))\n"
        "if isinstance(s, DiscreteLagrangian): pass\n"
    )
    found = {name: line for name, line in _isinstance_classes(ast.parse(source))}
    assert {name: found.get(name) for name in KERNEL_RECORDS} == {
        "ReducedStepper": 1, "FlatStepper": 2, "RK4": 2, "DiscreteLagrangian": 3
    }
