"""The package's public surface."""

import ast
import gc
import importlib
import sys
import types
import weakref
from pathlib import Path

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
            # the report writer caches the fields of each dataclass it writes
            importlib.import_module("minmax_procurement.cli")._json(
                sys.modules["minmax_procurement.graphs"].CostSummary((1,), 1, 1))
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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_sibling_uses(source: str, siblings: set[str]) -> list[str]:
    """`_`-prefixed names that `source` imports from, or reads through an
    alias of, a module of the package."""
    tree = ast.parse(source)
    aliases = set()  # local names bound to modules of the package
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("minmax_procurement"):
                continue
            from_package = module in ("", "minmax_procurement")
            for alias in node.names:
                if from_package and alias.name in siblings:
                    aliases.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("minmax_procurement.") and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_a_private_name_of_a_sibling():
    files = sorted(Path(minmax_procurement.__file__).parent.glob("*.py"))
    siblings = {f.stem for f in files}
    found = {f.name: uses for f in files
             if (uses := _private_sibling_uses(f.read_text(), siblings))}
    assert found == {}


def test_the_private_name_check_sees_both_forms():
    siblings = {"solvers", "graphs"}
    assert _private_sibling_uses("from .solvers import _scaled_costs", siblings)
    assert _private_sibling_uses(
        "from minmax_procurement.graphs import _file_cost", siblings)
    assert _private_sibling_uses("from . import solvers as s\ns._adjacency(x)", siblings)
    assert _private_sibling_uses(
        "import minmax_procurement.solvers as s\ns._adjacency(x)", siblings)
    assert not _private_sibling_uses(
        "from .graphs import scale_to_integers\nfrom . import solvers\n"
        "solvers.min_sum_value(x)\nsolvers.__name__", siblings)


MIN_SUM_SOLVERS = {"shortest_path", "min_arborescence"}


def _min_sum_solver_calls(source: str) -> list[str]:
    """Calls of a min-sum solver in `source`, by bare name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in MIN_SUM_SOLVERS:
                found.append(f"line {node.lineno}: calls {name}")
    return found


def test_only_solvers_calls_a_min_sum_solver():
    # min-sum answers elsewhere come from the memoized min_sum_optimum or
    # from scaled_min_sum_value, so one instance is never solved twice
    files = sorted(Path(minmax_procurement.__file__).parent.glob("*.py"))
    found = {f.name: calls for f in files
             if f.stem != "solvers" and (calls := _min_sum_solver_calls(f.read_text()))}
    assert found == {}


def test_the_min_sum_solver_check_sees_both_forms():
    assert _min_sum_solver_calls("shortest_path(inst).value")
    assert _min_sum_solver_calls("solvers.min_arborescence(inst)")
    assert not _min_sum_solver_calls(
        "from .solvers import shortest_path\nmin_sum_optimum(inst)\nf(shortest_path)")
