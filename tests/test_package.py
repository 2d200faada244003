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
            importlib.import_module("minmax_procurement.graphs").json_text(
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


MIN_SUM_MEMO = "_min_sum_cache"


def _min_sum_memo_uses(source: str, owner: str | None = None) -> list[str]:
    """Reads and writes of the min-sum memo in `source`, the key as a string
    or as an attribute, outside the function named `owner`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if where != owner and (isinstance(node, ast.Constant) and node.value == MIN_SUM_MEMO
                               or isinstance(node, ast.Attribute) and node.attr == MIN_SUM_MEMO):
            found.append(f"line {node.lineno}: in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_min_sum_optimum_touches_the_min_sum_memo():
    # whether a pivot needs a solve is the payment loop's to decide, from the
    # optimum min_sum_optimum returns; no other code reads or writes its memo
    files = sorted(Path(minmax_procurement.__file__).parent.glob("*.py"))
    found = {f.name: uses for f in files if (uses := _min_sum_memo_uses(
        f.read_text(), "min_sum_optimum" if f.stem == "solvers" else None))}
    assert found == {}


def test_the_min_sum_memo_check_sees_both_forms():
    assert _min_sum_memo_uses('inst.__dict__.get("_min_sum_cache")')
    assert _min_sum_memo_uses("def f(inst):\n    return inst._min_sum_cache")
    assert _min_sum_memo_uses("def f(inst):\n    inst._min_sum_cache = 1", "g")
    owned = 'def min_sum_optimum(inst):\n    return inst.__dict__.get("_min_sum_cache")'
    assert not _min_sum_memo_uses(owned, "min_sum_optimum")
    assert _min_sum_memo_uses(owned)


def _owner_comparisons(source: str) -> list[str]:
    """Comparisons in `source` of an `.owner` attribute, on either side, by
    equality or identity: the test of an edge against one agent."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)) and any(
                        isinstance(x, ast.Attribute) and x.attr == "owner"
                        for x in (left, right)):
                    found.append(f"line {node.lineno}")
    return found


def test_only_graphs_and_solvers_test_an_edge_against_an_agent():
    # which edges an agent owns is read from `Instance.owned`, which also
    # refuses an agent outside 1..n; the solvers skip an agent's edges as
    # they relax them
    files = sorted(Path(minmax_procurement.__file__).parent.glob("*.py"))
    found = {f.name: uses for f in files if f.stem not in ("graphs", "solvers")
             and (uses := _owner_comparisons(f.read_text()))}
    assert found == {}


def test_the_owner_comparison_check_sees_both_forms():
    assert _owner_comparisons("[e.id for e in inst.edges if e.owner == agent]")
    assert _owner_comparisons("if agent != inst.edge_by_id(eid).owner:\n    pass")
    assert not _owner_comparisons(
        "inst.owned(agent)\nloads[e.owner - 1]\nif e.owner in seen:\n    pass\n"
        "owner == agent")


def _scale_calls(source: str, module: str) -> list[str]:
    """Calls of `scale_to_integers` in `source`, by bare name or as an
    attribute, each with the qualified name of the function around it."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) \
                    == "scale_to_integers":
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_only_the_instance_and_the_chain_dp_scale_costs_to_integers():
    # every other layer reads the instance's integer costs from
    # `Instance.scaled_costs`; the chain DP scales the block vectors it is given
    files = sorted(Path(minmax_procurement.__file__).parent.glob("*.py"))
    found = [call for f in files for call in _scale_calls(f.read_text(), f.stem)]
    assert sorted(found) == ["graphs.Instance.scaled_costs", "solvers.chain_minmax_exact"]


def test_the_scaling_check_sees_both_forms():
    assert _scale_calls("def f(xs):\n    return scale_to_integers(xs)", "m") == ["m.f"]
    assert _scale_calls("class C:\n    def f(self):\n        graphs.scale_to_integers(x)",
                        "m") == ["m.C.f"]
    assert _scale_calls("from .graphs import scale_to_integers\nf(scale_to_integers)", "m") == []


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    """Every (module, attribute) in the bench tracer's LAYERS, read from its
    source without running it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return [name for names in ast.literal_eval(node.value).values()
                    for name in names]
    raise AssertionError(f"{TRACING} assigns no LAYERS")


def _resolves(module: str, attr: str) -> bool:
    """Whether the tracer finds a callable for `attr` in the package's
    `module`; a `Class.method` name is looked up in the class __dict__."""
    home = importlib.import_module(f"minmax_procurement.{module}")
    cls_name, _, method = attr.rpartition(".")
    if not cls_name:
        return callable(getattr(home, attr, None))
    cls = getattr(home, cls_name, None)
    return isinstance(cls, type) and callable(cls.__dict__.get(method))


def test_every_name_the_bench_traces_resolves():
    # a traced name deleted from the package breaks `bench/run.py --trace`,
    # which no other test runs
    names = _traced_names()
    assert ("vcg", "clarke_payments") in names and ("graphs", "Instance.with_costs") in names
    assert [name for name in names if not _resolves(*name)] == []


def test_the_traced_name_check_sees_both_forms():
    assert _resolves("vcg", "clarke_payments")
    assert _resolves("graphs", "Instance.without_agent")
    assert not _resolves("vcg", "run_vcg")
    assert not _resolves("graphs", "CHUNK")  # not callable
    assert not _resolves("graphs", "Instance.no_such_method")
    assert not _resolves("graphs", "NoSuchClass.derive")


def _edge_builders(source: str) -> list[str]:
    """The functions of `source` that construct an `Edge`, by bare name or
    as an attribute, one entry per construction."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "Edge":
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_plain_chain_and_the_route_builder_make_edges_in_the_adversary():
    # both lower-bound chains, and `expand_chain`, are built by `_routes`
    source = (Path(minmax_procurement.__file__).parent / "adversary.py").read_text()
    assert sorted(set(_edge_builders(source))) == ["_routes", "gen_chain"]


def test_the_edge_builder_check_sees_both_forms():
    assert _edge_builders("def f(k):\n    return Edge(0, k, k + 1, 1, 1)") == ["f"]
    assert _edge_builders("def g():\n    graphs.Edge(0, 0, 1, 1, 1)") == ["g"]
    assert _edge_builders("from .graphs import Edge\nEdge(0, 0, 1, 1, 1)") == ["<module>"]
    assert _edge_builders("def f(inst):\n    return [e for e in inst.edges if Edge]") == []
