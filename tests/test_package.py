"""The package's public surface."""

import types

import minmax_procurement


def test_all_names_exist_and_none_is_a_module():
    for name in minmax_procurement.__all__:
        assert not isinstance(getattr(minmax_procurement, name), types.ModuleType), name


def test_all_lists_each_name_once():
    assert len(set(minmax_procurement.__all__)) == len(minmax_procurement.__all__)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from minmax_procurement import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(minmax_procurement.__all__)
