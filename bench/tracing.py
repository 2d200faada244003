"""Per-layer spans of the package, recorded from outside it.

``Tracer.install`` wraps each layer's public callables wherever the function
object is bound: in its home module and in every module that imported it
(``vcg`` binds ``min_sum_optimum``, ``pareto`` binds ``shortest_path``,
``cli`` binds ``load_instance``, ...). While an op runs, each call records a
span: name, start, end, parent span, op id and a work count. Nothing in the
package changes; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "minmax_procurement"

# span name -> (module, attribute) of the callables it covers
LAYERS = {
    "solvers.shortest_path": [("solvers", "shortest_path")],
    "solvers.min_arborescence": [("solvers", "min_arborescence")],
    "solvers.min_sum_optimum": [("solvers", "min_sum_optimum")],
    "solvers.chain_minmax_exact": [("solvers", "chain_minmax_exact")],
    "vcg.vcg_allocate": [("vcg", "vcg_allocate")],
    "vcg.clarke_payments": [("vcg", "clarke_payments")],
    "pareto.preprocess": [("pareto", "preprocess")],
    "pareto.pareto_eps": [("pareto", "pareto_eps")],
    "pareto.minmax_ptas": [("pareto", "minmax_ptas")],
    "audit.check_truthfulness": [("audit", "check_truthfulness")],
    "audit.check_weak_monotonicity": [("audit", "check_weak_monotonicity")],
    "audit.random_instance": [("audit", "random_path_instance"),
                              ("audit", "random_arborescence_instance")],
    "adversary.run_adversary": [("adversary", "run_adversary")],
    "adversary.build_adversary_instance": [("adversary", "build_adversary_instance")],
    "adversary.opt_upper_bound": [("adversary", "opt_upper_bound")],
    "graphs.Instance.derive": [("graphs", "Instance.with_costs"),
                               ("graphs", "Instance.without_agent"),
                               ("graphs", "Instance.without_edges")],
    "graphs.validate_solution": [("graphs", "validate_solution")],
    "graphs.cost_summary": [("graphs", "cost_summary")],
    "graphs.load_instance": [("graphs", "load_instance")],
    "cli.main": [("cli", "main")],
}

# work counted by a span, from the call's arguments and result
WORK = {
    "solvers.shortest_path": lambda args, result: len(args[0].edges),
    "solvers.min_arborescence": lambda args, result: len(args[0].edges),
    "solvers.chain_minmax_exact": lambda args, result: len(args[1]),
    "pareto.pareto_eps": lambda args, result: len(result),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's spans, -1 for an op's root
    op: int
    work: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self._active = False
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self):
        """Record spans for the calls made inside this block."""
        self._op += 1
        self._active = True
        try:
            yield
        finally:
            self._active = False
            self._stack.clear()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            if name == "adversary.run_adversary":
                # the allocation rule is a plain argument: span its calls too
                args = (self._wrap("adversary.alg", args[0]), *args[1:])
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, 0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, bindings in LAYERS.items():
            for module_name, attr in bindings:
                home = sys.modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:  # a method: the class is shared by every module
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, key, original))
                            setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


@dataclass
class LayerTotals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: int = 0


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: calls, time, self time and work.

    Self time is a span's duration minus its direct children's durations;
    children of one span run one after another, so they never overlap.
    ``vcg.min_sum_solves`` counts min-sum solves made under any vcg span.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, LayerTotals] = {}
    for i, span in enumerate(spans):
        t = totals.setdefault(span.name, LayerTotals())
        duration = span.end - span.start
        t.calls += 1
        t.s += duration
        t.self_s += duration - child_time[i]
        t.work += span.work
    solves = totals.setdefault("vcg.min_sum_solves", LayerTotals())
    for span in spans:
        if span.name == "solvers.min_sum_optimum" and _under(spans, span, "vcg."):
            solves.calls += 1
    return totals


def _under(spans: list[Span], span: Span, prefix: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


def merge(into: dict[str, LayerTotals], other: dict[str, LayerTotals]) -> None:
    for name, t in other.items():
        acc = into.setdefault(name, LayerTotals())
        acc.calls += t.calls
        acc.s += t.s
        acc.self_s += t.self_s
        acc.work += t.work
