"""Command-line harness: instance generation, solving, mechanism runs,
audits, the approximation scheme, and adversary executions.

Reports are JSON documents, written by `graphs.json_text`, whose numeric
fields are exact rationals encoded as strings ("p" or "p/q"); each report
echoes the configuration (including the seed) needed to reproduce it byte
for byte. Exit codes: 0 on success or an expected witness, 1 on an
unexpected property failure, 2 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import random
import sys
from fractions import Fraction

from . import adversary as adv
from . import audit as audit_mod
from . import pareto
from . import solvers
from . import vcg as vcg_mod
from .graphs import (
    InstanceFormatError,
    as_rational,
    cost_summary,
    dump_instance,
    json_text,
    load_instance,
    write_object,
)

USAGE_ERROR = 2
PROPERTY_FAILURE = 1
MAX_TRIALS = 100_000  # audit trials one run may ask for


class UsageError(Exception):
    pass


def _emit(report: dict, out: str | None, *member) -> None:
    """Write `report` and a newline to `out` or stdout. A `member`, `key,
    items, records`, adds `key` to the report, written a chunk at a time by
    `graphs.write_object`."""
    if not member:
        text = json_text(report)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if not member:
            fh.write(text)
        else:
            write_object(fh.write, report, *member)
        fh.write("\n")


def _fraction(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational p/q or decimal: {text!r}") from exc


ALGORITHMS = ("vcg", "chain-exact")


# -- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "chain" and args.eps is not None:
        raise UsageError("gen chain takes no --eps: a plain chain has no helper edges")
    try:
        spec = adv.ChainSpec(args.agents, args.blocks, args.base, args.eps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.kind == "chain":
        inst = adv.gen_chain(spec)
    else:
        mode = adv.MODE_PATH if args.kind == "expandedchain" else adv.MODE_DMST
        inst = adv.build_adversary_instance(spec, mode)[0]
    dump_instance(inst, args.out)
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.objective == "minsum":
        report = solvers.min_sum_optimum(inst)
    else:
        report = solvers.brute_minmax(inst)
    _emit({
        "command": "solve",
        "config": {"instance": args.instance, "objective": args.objective},
        "objective": report.objective,
        "value": report.value,
        "witness": report.witness,
    }, args.out)
    return 0


def cmd_vcg(args) -> int:
    inst = load_instance(args.instance)
    alloc = vcg_mod.vcg_allocate(inst)
    payments = vcg_mod.clarke_payments(inst, alloc)
    summary = cost_summary(inst, alloc)
    selected: dict[int, list[int]] = {}  # owner -> ids, for owners of allocated edges
    for eid in alloc.sorted_ids():
        selected.setdefault(inst.edge_by_id(eid).owner, []).append(eid)

    def rows(agents: range) -> list[dict]:
        return [{
            "agent": agent,
            "selected_edge_ids": selected.get(agent, []),
            "cost": summary.per_agent[agent - 1],
            "payment": payments[agent - 1],
            "utility": payments[agent - 1] - summary.per_agent[agent - 1],
        } for agent in agents]

    _emit({
        "command": "vcg",
        "config": {"instance": args.instance},
        "allocation": alloc,
        "max_agent_cost": summary.max_cost,
        "tie_break": "deterministic smallest-edge-id preference",
    }, args.out, "agents", range(1, inst.agent_count + 1), rows)
    return 0


def cmd_ptas(args) -> int:
    inst = load_instance(args.instance)
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
        opt = solvers.brute_minmax(inst).value
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
    bits = rng.getrandbits
    agents = 2 + audit_mod.draw_below(bits, 2)
    if kind == "truthfulness" or rng.random() < 0.5:
        inst = audit_mod.random_path_instance(rng, agents=agents)
    else:
        inst = audit_mod.random_arborescence_instance(rng, agents=agents)
    agent = 1 + audit_mod.draw_below(bits, inst.agent_count)
    alloc = vcg_mod.vcg_allocate(inst)
    pert = audit_mod.random_perturbation(rng, inst, agent, alloc)
    if kind == "monotonicity":
        return audit_mod.check_weak_monotonicity(vcg_mod.vcg_allocate, inst, pert)
    return audit_mod.check_truthfulness(vcg_mod.vcg_mechanism, inst, agent, pert)


def cmd_audit(args) -> int:
    if args.trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    results = [_audit_one(args.kind, args.seed, i) for i in range(args.trials)]
    witnesses = [(i, w) for i, w in enumerate(results) if w is not None]
    _emit({
        "command": "audit",
        "config": {"kind": args.kind, "alg": args.alg, "trials": args.trials,
                   "seed": args.seed},
        "passes": args.trials - len(witnesses),
        "violations": [
            {"trial": i, "witness": w, "reverified": w.reverify()}
            for i, w in witnesses
        ],
    }, args.out)
    return PROPERTY_FAILURE if witnesses else 0


def cmd_adversary(args) -> int:
    if args.alg == "chain-exact" and args.mode != "path":
        raise UsageError("chain-exact allocates routes of the path chain; use --mode path")
    try:
        spec = adv.ChainSpec(args.agents, args.blocks, helper_eps=args.eps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    built = adv.build_adversary_instance(spec, args.mode)
    alg = vcg_mod.vcg_allocate if args.alg == "vcg" else adv.chain_exact_allocator(built[1])
    report = adv.run_adversary(alg, spec, args.mode, built)
    doc = {
        "command": "adversary",
        "config": {"alg": args.alg, "agents": args.agents,
                   "blocks": args.blocks, "mode": args.mode,
                   "eps": spec.eps_for(args.mode)},
        "outcome": report.outcome,
        "selections_per_agent": report.selections_per_agent,
        "heavy_agent": report.heavy_agent,
        "trace": report.trace,
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
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: an option has one spelling, never a prefix
    parser = argparse.ArgumentParser(
        prog="minmax-procurement", allow_abbrev=False,
        description="Min-max procurement auctions: solvers, VCG, audits, "
                    "approximation scheme, and adversarial lower-bound runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", allow_abbrev=False, help="generate a chain-family instance file")
    p.add_argument("kind", choices=["chain", "expandedchain", "dmst-chain"])
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--base", type=_fraction, default="1")
    p.add_argument("--eps", type=_fraction, default=None,
                   help="helper cost of expandedchain and dmst-chain "
                        "(default: the mode's standard choice)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", allow_abbrev=False, help="run an exact solver on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", choices=["minsum", "minmax"], default="minsum")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("vcg", allow_abbrev=False, help="run the VCG mechanism with Clarke payments")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_vcg)

    p = sub.add_parser("ptas", allow_abbrev=False, help="run the min-max path approximation scheme")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--check-against-bruteforce", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ptas)

    p = sub.add_parser("audit", allow_abbrev=False, help="random truthfulness/monotonicity probes")
    p.add_argument("kind", choices=["monotonicity", "truthfulness"])
    p.add_argument("--alg", choices=["vcg"], default="vcg")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("adversary", allow_abbrev=False, help="execute the lower-bound construction")
    adv_sub = p.add_subparsers(dest="subcommand", required=True)
    pr = adv_sub.add_parser("run", allow_abbrev=False)
    pr.add_argument("--alg", choices=ALGORITHMS, default="vcg")
    pr.add_argument("--agents", type=int, required=True)
    pr.add_argument("--blocks", type=int, required=True)
    pr.add_argument("--mode", choices=["path", "dmst"], default="path")
    pr.add_argument("--eps", type=_fraction, default=None)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_adversary)

    return parser


# Built on the first `main` call, not at import; parsing does not change it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError, InstanceFormatError, solvers.NoFeasibleSolutionError,
            solvers.BudgetExceededError, vcg_mod.PivotalInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
