"""Benchmark of the minmax-procurement CLI: one workload per run.

    python3 bench/run.py --workload minsum-large --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from ``src/``. Load
is a closed loop with one client: each op is an in-process ``cli.main(argv)``
call that starts when the previous one has returned, so interpreter start-up
stays out of op times. Imports, instance generation and file writes are
timed as set-up. Times are process CPU seconds scaled by a calibration
kernel run before every op (``calibration.py``).

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run, and the tracing overhead as
traced against untraced ops per second. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
PACKAGE = "minmax_procurement"
MIN_CYCLES = 2  # the second cycle repeats every argv, for the byte-identity check

# (name, unit, better)
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("success_rate", "share", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

_SPAN_METRICS = [
    ("solvers.shortest_path", ("calls", "s", "self_s", "edges")),
    ("solvers.min_arborescence", ("calls", "s", "self_s", "edges")),
    ("solvers.chain_minmax_exact", ("calls", "s", "self_s", "blocks")),
    ("vcg.clarke_payments", ("calls", "s", "self_s")),
    ("vcg.vcg_allocate", ("calls", "s")),
    ("pareto.preprocess", ("calls", "s")),
    ("pareto.pareto_eps", ("calls", "s")),
    ("pareto.minmax_ptas", ("self_s",)),
    ("audit.check_truthfulness", ("calls", "s")),
    ("audit.check_weak_monotonicity", ("calls", "s")),
    ("audit.random_instance", ("s",)),
    ("adversary.run_adversary", ("calls", "s", "self_s")),
    ("adversary.build_adversary_instance", ("s",)),
    ("adversary.opt_upper_bound", ("s",)),
    ("graphs.Instance.derive", ("calls", "s")),
    ("graphs.validate_solution", ("calls", "s")),
    ("graphs.cost_summary", ("calls", "s")),
    ("graphs.load_instance", ("calls", "s")),
    ("cli.main", ("calls", "self_s")),
]
_UNITS = {"calls": "count", "s": "s", "self_s": "s", "edges": "count", "blocks": "count"}
SCALED_LAYERS = ("solvers.shortest_path", "solvers.min_arborescence",
                 "solvers.chain_minmax_exact")

# (name, unit, better); per-cycle totals unless the name says otherwise
PER_LAYER = [
    (f"{layer}.{field}", _UNITS[field], "lower")
    for layer, fields in _SPAN_METRICS for field in fields
] + [
    ("vcg.min_sum_solves", "count", "lower"),
    ("pareto.labels", "count", "lower"),
    ("adversary.alg_calls", "count", "lower"),
    ("cli.report_bytes", "B", "lower"),
] + [(f"{layer}.scaling_exp", "1", "lower") for layer in SCALED_LAYERS] + [
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead", "share", "lower"),
]


class Runner:
    """Runs ops one after another and verifies every report."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0
        self._first_report: dict[tuple[str, ...], bytes] = {}

    def run(self, op: workloads.Op) -> tuple[float, bool]:
        """Time one op in process CPU seconds; return (seconds, verified)."""
        op.out.unlink(missing_ok=True)
        self.attempted += 1
        traced = self.tracer.op() if self.tracer else nullcontext()
        start = time.process_time()
        try:
            with traced:
                code = self.cli.main(op.argv)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            return time.process_time() - start, self._fail(op, f"raised {exc!r}")
        elapsed = time.process_time() - start
        try:
            workloads.require(code == 0, f"exit code {code}")
            data, report = workloads.read_report(op)
            first = self._first_report.setdefault(tuple(op.argv), data)
            workloads.require(data == first, "report differs from an earlier run of the same argv")
            op.check(report)
        except Exception as exc:  # a wrong, malformed or missing report fails the op
            return elapsed, self._fail(op, str(exc) or repr(exc))
        self.report_bytes += len(data)
        return elapsed, True

    def _fail(self, op: workloads.Op, reason: str) -> bool:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {' '.join(op.argv)}: {reason}", file=sys.stderr)
        return False


def _package_modules() -> list[str]:
    return [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]


def setup(name: str, seed: int, work: Path, tiny: bool = False):
    """Import the package afresh and generate the inputs under ``work``.

    Returns the set-up time in process CPU seconds, the cli module and the
    workload.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for module in _package_modules():
        del sys.modules[module]
    shutil.rmtree(work, ignore_errors=True)
    start = time.process_time()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    workload = workloads.build(name, seed, work, tiny)
    seconds = time.process_time() - start
    gc.collect()  # replaced modules are garbage; free them before the ops
    return seconds, cli, workload


def time_setup(name: str, seed: int, work: Path, tiny: bool = False) -> float:
    """Time one more set-up in ``work``, in reference seconds, and discard it.

    The modules in use stay.
    """
    kept = {m: sys.modules[m] for m in _package_modules()}
    try:
        scale = calibration.REFERENCE_S / calibration.measure()
        return setup(name, seed, work, tiny)[0] * scale
    finally:
        for module in _package_modules():
            del sys.modules[module]
        sys.modules.update(kept)
        shutil.rmtree(work, ignore_errors=True)
        gc.collect()


@dataclass
class Loop:
    """What one closed loop measured, in reference seconds (see calibration)."""

    times: list[float]  # each verified op
    busy_s: float  # every attempted op
    scales: list[float]  # factor from CPU to reference seconds, per cycle
    wall_s: float
    cycles: int

    @property
    def ops_per_s(self) -> float:
        """Verified ops per reference second spent in ops."""
        return len(self.times) / self.busy_s


def closed_loop(runner: Runner, workload: workloads.Workload, seconds: float,
                after_cycle=None) -> Loop:
    """Run whole cycles until ``seconds`` have passed, at least MIN_CYCLES.

    ``after_cycle``, when given, is called after each cycle.

    Op times are process CPU seconds, not wall seconds. Ops are
    single-threaded and CPU-bound, so an op's CPU time is its wall time
    less the time the core was taken away from it, which on a shared
    machine comes and goes with other tenants' load. The calibration kernel
    runs before every op, and the op times of a cycle are scaled by the
    cycle's mean kernel time, to the workload's ``speed_exponent``, which
    removes the slowdown of the core itself. One kernel run is too short to
    scale one op by: it would add its own noise.
    """
    loop = Loop([], 0.0, [], 0.0, 0)
    start = time.perf_counter()
    while loop.cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
        kernel_s, ops = [], []
        for op in workload.cycle:
            kernel_s.append(calibration.measure())
            ops.append(runner.run(op))
        scale = (calibration.REFERENCE_S / statistics.mean(kernel_s)) ** workload.speed_exponent
        loop.scales.append(scale)
        for elapsed, ok in ops:
            loop.busy_s += elapsed * scale
            if ok:
                loop.times.append(elapsed * scale)
        loop.cycles += 1
        if after_cycle:
            after_cycle()
    loop.wall_s = time.perf_counter() - start
    return loop


def percentile_ranks(n: int) -> tuple[int, int]:
    """Nearest ranks of the p50 and the p90 among ``n`` sorted op times.

    Below 100 ops the p90 gives way to the highest percentile that still
    leaves 10 op times beyond it.
    """
    p90 = math.ceil(0.9 * n)
    if n < 100:
        p90 = max(min(p90, n - 10), 1)
    return min(math.ceil(0.5 * n), p90), p90


def end_to_end(runner: Runner, workload: workloads.Workload, seconds: float,
               one_setup: Callable[[], float]) -> dict[str, float]:
    """Run the loop untraced, timing one more set-up after each cycle.

    Set-up is short, so set-ups repeated back to back would all fall in
    the same phase of the machine's load; spread over the run, their
    median is as steady as the op times.
    """
    setup_times: list[float] = []
    loop = closed_loop(runner, workload, seconds,
                       after_cycle=lambda: setup_times.append(one_setup()))
    if not loop.times:
        raise RuntimeError("no op was verified")
    times = sorted(loop.times)
    n = len(times)
    p50, p90 = percentile_ranks(n)
    print(f"{workload.name}: {n} verified of {runner.attempted} ops in {loop.cycles} "
          f"cycles; p50 and p90 are ranks {p50} and {p90} (p{100 * p90 / n:.1f}) "
          f"of {n}; setup_s is the median of {len(setup_times)} set-ups; "
          f"CPU times scaled to reference seconds by a median factor of "
          f"{statistics.median(loop.scales):.4f}; "
          f"{n / loop.wall_s:.3f} verified ops per wall second")
    return {
        "ops_per_s": loop.ops_per_s,
        "op_p50_s": times[p50 - 1],
        "op_p90_s": times[p90 - 1],
        "success_rate": 1 - runner.failed / runner.attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, workload: workloads.Workload, seconds: float,
              trace_file: Path) -> dict[str, float]:
    """Untraced and traced pairs of cycles in turn, then the scaling ops, traced.

    The two kinds alternate so that both meet the same phases of the
    machine's load; the tracing overhead compares their rates. Layer values
    are totals per traced cycle: the traced cycles are identical, so every
    count is the same in each of them.
    """
    tracer = tracing.Tracer()
    totals: dict[str, tracing.LayerTotals] = {}
    first_cycle: list[tracing.Span] = []

    def fold():
        spans = tracer.take()
        if not first_cycle:
            first_cycle.extend(spans)
        tracing.merge(totals, tracing.summarize(spans))

    @contextmanager
    def tracing_on():
        runner.tracer = tracer
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
            runner.tracer = None

    untraced: list[Loop] = []
    traced: list[Loop] = []
    report_bytes = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(closed_loop(runner, workload, 0))
        bytes_before = runner.report_bytes
        with tracing_on():
            traced.append(closed_loop(runner, workload, 0, after_cycle=fold))
        report_bytes += runner.report_bytes - bytes_before
    scaling = {}
    with tracing_on():
        for full, half in workload.scaling:
            for key, op in (("full", full), ("half", half)):
                runner.run(op)
                tracing.merge(scaling.setdefault(key, {}), tracing.summarize(tracer.take()))
    cycles = sum(loop.cycles for loop in traced)

    with open(trace_file, "w") as fh:
        for span in first_cycle:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent,
                                 span.op, span.work]) + "\n")

    def total(layer: str, field: str) -> float:
        t = totals.get(layer, tracing.LayerTotals())
        return {"calls": t.calls, "s": t.s, "self_s": t.self_s,
                "edges": t.work, "blocks": t.work}[field] / cycles

    metrics = {f"{layer}.{field}": total(layer, field)
               for layer, fields in _SPAN_METRICS for field in fields}
    metrics["vcg.min_sum_solves"] = total("vcg.min_sum_solves", "calls")
    metrics["pareto.labels"] = total("pareto.pareto_eps", "edges")
    metrics["adversary.alg_calls"] = total("adversary.alg", "calls")
    metrics["cli.report_bytes"] = report_bytes / cycles
    for layer in SCALED_LAYERS:
        t_full = scaling.get("full", {}).get(layer, tracing.LayerTotals()).s
        t_half = scaling.get("half", {}).get(layer, tracing.LayerTotals()).s
        metrics[f"{layer}.scaling_exp"] = (
            math.log2(t_full / t_half) if t_full > 0 and t_half > 0 else 0.0)

    def ops_per_s(loops: list[Loop]) -> float:
        return sum(len(loop.times) for loop in loops) / sum(loop.busy_s for loop in loops)

    untraced_ops_per_s, traced_ops_per_s = ops_per_s(untraced), ops_per_s(traced)
    metrics["trace.untraced_ops_per_s"] = untraced_ops_per_s
    metrics["trace.traced_ops_per_s"] = traced_ops_per_s
    metrics["trace.overhead"] = 1 - traced_ops_per_s / untraced_ops_per_s
    print(f"{workload.name}: {cycles} traced cycles; tracing overhead "
          f"{100 * metrics['trace.overhead']:.1f}% of untraced ops per second; "
          f"spans of the first traced cycle in {trace_file.relative_to(ROOT)}")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    # relative, so that reports, which echo their paths, name no absolute path
    work = Path(os.path.relpath(RUN_DIR / f"{name}-{seed}"))
    try:
        _, cli, workload = setup(name, seed, work, tiny)
        runner = Runner(cli)
        if trace:
            values = per_layer(runner, workload, seconds,
                               RUN_DIR / f"trace-{name}-{seed}.jsonl")
            defs = PER_LAYER
        else:
            values = end_to_end(
                runner, workload, seconds,
                lambda: time_setup(name, seed, work.with_name(work.name + "-setup"), tiny))
            defs = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit, _ in defs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
