"""The package's public namespace."""

import types

import vnls


def test_all_lists_public_objects_not_modules():
    assert len(set(vnls.__all__)) == len(vnls.__all__)
    for name in vnls.__all__:
        assert not isinstance(getattr(vnls, name), types.ModuleType), name
