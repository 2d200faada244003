"""The package's public surface."""

import gc
import importlib
import sys
import types
import weakref

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


def _package_modules():
    return [m for m in sys.modules
            if m == "minmax_procurement" or m.startswith("minmax_procurement.")]


def test_discarded_imports_of_the_package_are_collected():
    # a module-level typing alias subscripted with package classes lands in
    # typing's caches, which then keep every discarded copy alive
    kept = {m: sys.modules[m] for m in _package_modules()}
    refs = []
    try:
        for _ in range(3):
            for m in _package_modules():
                del sys.modules[m]
            importlib.import_module("minmax_procurement.cli")
            for m in _package_modules():
                refs.extend(weakref.ref(obj) for obj in vars(sys.modules[m]).values()
                            if isinstance(obj, type) and obj.__module__ == m)
    finally:
        for m in _package_modules():
            del sys.modules[m]
        sys.modules.update(kept)
    assert len(refs) > 3 * 20  # each copy defines a few dozen classes
    gc.collect()
    alive = [r() for r in refs if r() is not None]
    assert alive == []
