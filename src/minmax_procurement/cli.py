"""Command-line harness: instance generation, solving, mechanism runs,
audits, the approximation scheme, and adversary executions.

Reports are JSON documents whose numeric fields are exact rationals encoded
as strings ("p" or "p/q"); each report echoes the configuration (including
the seed) needed to reproduce it byte for byte. Exit codes: 0 on success or
an expected witness, 1 on an unexpected property failure, 2 on usage or I/O
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import adversary as adv
from . import audit as audit_mod
from . import pareto
from . import solvers
from . import vcg as vcg_mod
from .graphs import (
    ARBORESCENCE,
    InstanceFormatError,
    PATH,
    Instance,
    Solution,
    agent_cost,
    cost_summary,
    dump_instance,
    load_instance,
)

USAGE_ERROR = 2
PROPERTY_FAILURE = 1


class UsageError(Exception):
    pass


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Solution):
        return sorted(obj.edge_ids)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(report), indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _load(path: str) -> Instance:
    try:
        return load_instance(path)
    except (OSError, InstanceFormatError) as exc:
        raise UsageError(str(exc)) from exc


ALGORITHMS = ("vcg", "chain-exact")


def _resolve_algorithm(name: str, indexing=None):
    if name == "vcg":
        return vcg_mod.vcg_allocate
    if name == "chain-exact":
        if indexing is None:
            raise UsageError("chain-exact needs a generated chain instance")
        return adv.chain_exact_allocator(indexing)
    raise UsageError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")


# -- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        spec = adv.ChainSpec(args.agents, args.blocks, Fraction(args.base),
                             args.eps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.kind == "chain":
        inst = adv.gen_chain(spec)
    elif args.kind == "expandedchain":
        inst, _ = adv.expand_chain(adv.gen_chain(spec),
                                   spec.eps_for(adv.MODE_PATH))
    else:  # dmst-chain
        inst, _ = adv.gen_dmst_chain(spec)
    dump_instance(inst, args.out)
    return 0


def cmd_solve(args) -> int:
    inst = _load(args.instance)
    if args.objective == "minsum":
        report = solvers.min_sum_optimum(inst)
    else:
        report = solvers.brute_minmax(inst, limit=args.limit)
    _emit({
        "command": "solve",
        "config": {"instance": args.instance, "objective": args.objective},
        "objective": report.objective,
        "value": report.value,
        "witness": report.witness,
    }, args.out)
    return 0


def cmd_vcg(args) -> int:
    inst = _load(args.instance)
    outcome = vcg_mod.run_vcg(inst)
    per_agent = []
    for agent in range(1, inst.agent_count + 1):
        selected = sorted(
            eid for eid in outcome.allocation.edge_ids
            if inst.edge_by_id(eid).owner == agent)
        cost = agent_cost(inst, outcome.allocation, agent)
        payment = outcome.payments[agent - 1]
        per_agent.append({
            "agent": agent,
            "selected_edge_ids": selected,
            "cost": cost,
            "payment": payment,
            "utility": payment - cost,
        })
    _emit({
        "command": "vcg",
        "config": {"instance": args.instance},
        "allocation": outcome.allocation,
        "max_agent_cost": cost_summary(inst, outcome.allocation).max_cost,
        "agents": per_agent,
        "tie_break": "deterministic smallest-edge-id preference",
    }, args.out)
    return 0


def cmd_ptas(args) -> int:
    inst = _load(args.instance)
    try:
        report = pareto.minmax_ptas(inst, args.epsilon)
    except ValueError as exc:  # epsilon <= 0 or not a path instance
        raise UsageError(str(exc)) from exc
    doc = {
        "command": "ptas",
        "config": {"instance": args.instance, "epsilon": args.epsilon},
        "value": report.value,
        "witness": report.witness,
        "delta": report.delta,
        "baseline_shortest_path": report.baseline_sp,
        "label_count_at_target": report.label_count,
    }
    status = 0
    if args.check_against_bruteforce:
        opt = solvers.brute_minmax(inst, limit=args.limit).value
        bound = (1 + args.epsilon) ** 2 * opt
        doc["bruteforce_optimum"] = opt
        doc["bound"] = bound
        doc["bound_satisfied"] = report.value <= bound
        if not doc["bound_satisfied"]:
            status = PROPERTY_FAILURE
    _emit(doc, args.out)
    return status


def _audit_one(kind: str, seed: int, index: int):
    rng = random.Random(seed * 1_000_003 + index)
    agents = rng.randint(2, 3)
    if kind == "truthfulness" or rng.random() < 0.5:
        inst = audit_mod.random_path_instance(rng, agents=agents)
    else:
        inst = audit_mod.random_arborescence_instance(rng, agents=agents)
    agent = rng.randint(1, inst.agent_count)
    alloc = vcg_mod.vcg_allocate(inst)
    pert = audit_mod.random_perturbation(rng, inst, agent, alloc)
    if kind == "monotonicity":
        return audit_mod.check_weak_monotonicity(vcg_mod.vcg_allocate, inst, pert)
    return audit_mod.check_truthfulness(vcg_mod.run_vcg, inst, agent, pert)


def cmd_audit(args) -> int:
    if args.alg != "vcg":
        raise UsageError("the audit harness probes the built-in vcg algorithm")
    indices = range(args.trials)
    worker = lambda i: _audit_one(args.kind, args.seed, i)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(worker, indices))
    else:
        results = [worker(i) for i in indices]
    witnesses = [(i, w) for i, w in enumerate(results) if w is not None]
    _emit({
        "command": "audit",
        "config": {"kind": args.kind, "alg": args.alg, "trials": args.trials,
                   "seed": args.seed, "jobs": args.jobs},
        "passes": args.trials - len(witnesses),
        "violations": [
            {"trial": i, "witness": w, "reverified": w.reverify()}
            for i, w in witnesses
        ],
    }, args.out)
    return PROPERTY_FAILURE if witnesses else 0


def cmd_adversary(args) -> int:
    try:
        spec = adv.ChainSpec(args.agents, args.blocks, helper_eps=args.eps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    mode = adv.MODE_PATH if args.mode == "path" else adv.MODE_DMST
    _, indexing = adv.build_adversary_instance(spec, mode)
    alg = _resolve_algorithm(args.alg, indexing)
    report = adv.run_adversary(alg, spec, mode)
    doc = {
        "command": "adversary",
        "config": {"alg": args.alg, "agents": args.agents,
                   "blocks": args.blocks, "mode": args.mode,
                   "eps": spec.eps_for(mode)},
        "outcome": report.outcome,
        "selections_per_agent": list(report.selections_per_agent),
        "heavy_agent": report.heavy_agent,
        "trace": [
            {"agent": s.agent, "allocation": s.allocation, "stable": s.stable}
            for s in report.trace
        ],
    }
    if report.ratio is not None:
        doc["ratio"] = {
            "algorithm_cost": report.ratio.algorithm_cost,
            "opt_upper_bound": report.ratio.opt_upper_bound,
            "certified_ratio": report.ratio.certified_ratio,
            "guaranteed_bound": report.ratio.guaranteed_bound,
        }
    else:
        doc["violation"] = report.violation
        doc["violation_reverified"] = report.violation.reverify()
    _emit(doc, args.out)
    if args.csv:
        with open(args.csv, "a") as fh:
            ratio = report.ratio.certified_ratio if report.ratio else ""
            fh.write(f"{args.mode},{args.agents},{args.blocks},"
                     f"{spec.eps_for(mode)},{report.outcome},{ratio}\n")
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmax-procurement",
        description="Min-max procurement auctions: solvers, VCG, audits, "
                    "approximation scheme, and adversarial lower-bound runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a chain-family instance file")
    p.add_argument("kind", choices=["chain", "expandedchain", "dmst-chain"])
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--base", default="1")
    p.add_argument("--eps", type=_fraction, default=None,
                   help="helper cost (default: the mode's standard choice)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run an exact solver on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", choices=["minsum", "minmax"], default="minsum")
    p.add_argument("--limit", type=int, default=solvers.BRUTE_NODE_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("vcg", help="run the VCG mechanism with Clarke payments")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_vcg)

    p = sub.add_parser("ptas", help="run the min-max path approximation scheme")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--check-against-bruteforce", action="store_true")
    p.add_argument("--limit", type=int, default=solvers.BRUTE_NODE_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ptas)

    p = sub.add_parser("audit", help="random truthfulness/monotonicity probes")
    p.add_argument("kind", choices=["monotonicity", "truthfulness"])
    p.add_argument("--alg", default="vcg")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("adversary", help="execute the lower-bound construction")
    adv_sub = p.add_subparsers(dest="subcommand", required=True)
    pr = adv_sub.add_parser("run")
    pr.add_argument("--alg", default="vcg")
    pr.add_argument("--agents", type=int, required=True)
    pr.add_argument("--blocks", type=int, required=True)
    pr.add_argument("--mode", choices=["path", "dmst"], default="path")
    pr.add_argument("--eps", type=_fraction, default=None)
    pr.add_argument("--csv", help="append a summary row to this CSV file")
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_adversary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (solvers.NoFeasibleSolutionError, solvers.BudgetExceededError,
            vcg_mod.PivotalInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
