"""The package's public names: ``morphlift.__all__`` lists each exported
name once, and each one exists, so ``from morphlift import *`` works."""

import morphlift


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from morphlift import *", namespace)
    assert [name for name in morphlift.__all__ if name not in namespace] == []
    assert len(set(morphlift.__all__)) == len(morphlift.__all__)
