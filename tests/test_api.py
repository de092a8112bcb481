"""The package's public names: ``morphlift.__all__`` lists each exported
name once, and each one exists, so ``from morphlift import *`` works; and
each one is used by the package itself, so no export serves the tests
alone."""

import ast
from pathlib import Path

import morphlift

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
