"""The package's public names: ``morphlift.__all__`` lists each exported
name once, and each one exists, so ``from morphlift import *`` works; and
each one is used by the package itself, so no export serves the tests
alone.  The same holds for the public methods and properties of
``MultiPoly``: each is read as an attribute somewhere in the package, or
traced by the benchmark; and for every public module-level function and
class of the package: each is loaded somewhere in the package outside
``__init__.py``, or traced by the benchmark."""

import ast
import types
from pathlib import Path

import morphlift
from morphlift import calculus
from morphlift.poly import MultiPoly

# Exported although no module of the package reads it: the documented way to
# read back a polynomial that ``--json`` printed.
USED_OUTSIDE_THE_PACKAGE = {"parse_poly"}


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from morphlift import *", namespace)
    assert [name for name in morphlift.__all__ if name not in namespace] == []
    assert len(set(morphlift.__all__)) == len(morphlift.__all__)


def _names_loaded_by_the_package() -> set:
    loaded = set()
    for path in Path(morphlift.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_exported_name_is_used_by_the_package():
    loaded = _names_loaded_by_the_package()
    unused = {name for name in morphlift.__all__ if name not in loaded}
    assert unused == USED_OUTSIDE_THE_PACKAGE


TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names() -> set:
    """The qualified names in ``perfbench/tracer.py``'s ``LAYERS``, read from
    the file, as ``test_bench_contract.py`` reads it."""
    namespace: dict = {}
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), namespace)
    return {f"{layer}.{name}" for layer, names in namespace["LAYERS"].items()
            for name in names}


def _attributes_loaded_by_the_package() -> set:
    return {node.attr for path in Path(morphlift.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_method_of_multipoly_is_used_by_the_package():
    # a method only the tests call is a kernel to delete, or to move into
    # a test oracle
    public = {name for name, value in vars(MultiPoly).items()
              if not name.startswith("_")
              and isinstance(value, (property, classmethod, staticmethod,
                                     types.FunctionType))}
    used = _attributes_loaded_by_the_package() | {
        name.rpartition(".")[2] for name in _traced_names()
        if name.startswith("poly.MultiPoly.")}
    assert public - used == set()


def test_every_public_function_and_class_is_used_by_the_package():
    # a definition that only the tests or the exports read is code to
    # delete, or to move into a test oracle
    loaded = _names_loaded_by_the_package()
    traced = _traced_names()
    unused = set()
    for path in Path(morphlift.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in loaded
                    and f"{path.stem}.{node.name}" not in traced):
                unused.add(f"{path.stem}.{node.name}")
    assert unused == set()


def test_only_exact_takes_lcm_or_gcd_from_math():
    # scaling exact scalars to integers over the lcm of their denominators
    # has one home, exact.integer_parts; a second copy elsewhere would
    # import lcm or gcd, or read them from math
    takers = set()
    for path in Path(morphlift.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module == "math"
                    and {alias.name for alias in node.names} & {"lcm", "gcd"}
                    or isinstance(node, ast.Attribute)
                    and node.attr in ("lcm", "gcd")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"):
                takers.add(path.name)
    assert takers == {"exact.py"}


def test_no_module_imports_cmath():
    # smooth maps are real, so the float pipeline evaluates in real floats;
    # complex arithmetic would give a real value a spurious imaginary part
    importers = set()
    for path in Path(morphlift.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Import)
                    and any(alias.name == "cmath" for alias in node.names)
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "cmath"):
                importers.add(path.name)
    assert importers == set()


def test_no_class_of_calculus_leaves_calculus():
    # the Jacobian comes as rows; a matrix class left in calculus serves only
    # the benchmark's traced product, so the package neither exports it nor
    # imports or reads it in another module
    classes = {name for name, value in vars(calculus).items()
               if isinstance(value, type) and value.__module__ == calculus.__name__}
    assert classes.isdisjoint(morphlift.__all__)
    loaders = set()
    for path in Path(morphlift.__file__).parent.glob("*.py"):
        if path.name == "calculus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id in classes
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.ImportFrom)
                    and any(alias.name in classes for alias in node.names)):
                loaders.add(path.name)
    assert loaders == set()


def test_jacobian_returns_a_tuple_of_row_tuples():
    phi = morphlift.parse_map("map f: R^3 -> R^2 { f1 = x1*x2; f2 = 0; }")
    rows = morphlift.jacobian(phi)
    assert type(rows) is tuple and len(rows) == 2
    assert all(type(row) is tuple and len(row) == 3 for row in rows)
