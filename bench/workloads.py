"""Seeded workloads for the benchmark: inputs, op mix and report checks.

A workload is a cycle of ops. Each op is one in-process ``cli.main(argv)``
call, the same command a user runs, writing its report to ``--out``. The
cycle mixes op classes in fixed proportions so that the p50 and the p90 of
op times each fall inside one class. Every op has a check that verifies its
report independently of the timing; a failed check counts as a failed op.

All inputs come from the workload seed. The program sees only the instance
files written here and its argv.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("minsum-large", "adversary-chain-exact", "ptas-eps", "audit-small")


class CheckFailed(Exception):
    """A report is missing a field, is malformed, or is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str  # op class; the cycle's proportions place p50 and p90 in one class each
    argv: list[str]  # full cli argv, ``--out`` included
    check: Callable[[dict], None]  # raises on a wrong report

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    # (full size, half size) pairs of the heaviest op classes; the traced run
    # times each once to give the layers' scaling exponents
    scaling: list[tuple[Op, Op]]
    # how closely op times follow the calibration kernel's when the machine's
    # speed changes: the slope of log op time on log kernel time across runs
    # on the machine described in calibration.py
    speed_exponent: float = 1.0


# Sizes per workload: full size for the benchmark, tiny for its tests.
SIZES = {
    "minsum-large": {
        "full": {"vcg_blocks": (636, 644), "dmst_blocks": (63, 65)},
        "tiny": {"vcg_blocks": (6, 8), "dmst_blocks": (3, 4)},
    },
    "adversary-chain-exact": {
        # at 3 agents one block more or less moves an op's time by a quarter,
        # so that class keeps one size and only the 2-agent size is seeded
        "full": {"two_blocks": (79, 81), "three_blocks": (12, 12)},
        "tiny": {"two_blocks": (6, 8), "three_blocks": (3, 3)},
    },
    "ptas-eps": {
        # (blocks, epsilon) per op class: light, medium, heavy
        "full": {"light": (2, "1/32"), "medium": (2, "1/64"), "heavy": (2, "1/256")},
        "tiny": {"light": (2, "1/4"), "medium": (2, "1/8"), "heavy": (1, "1/16")},
    },
    "audit-small": {
        "full": {"truthfulness": 200, "monotonicity": 200},
        "tiny": {"truthfulness": 4, "monotonicity": 4},
    },
}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    """Generate the workload's instance files under ``work`` and its ops."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    make = {
        "minsum-large": _minsum_large,
        "adversary-chain-exact": _adversary_chain_exact,
        "ptas-eps": _ptas_eps,
        "audit-small": _audit_small,
    }[name]
    return make(rng, work, SIZES[name]["tiny" if tiny else "full"])


def _interleave(heavy: list[Op], light: list[Op]) -> list[Op]:
    """One heavy op, then an equal share of the light ops, and so on."""
    per = len(light) // len(heavy)
    cycle = []
    for i, op in enumerate(heavy):
        cycle.append(op)
        cycle.extend(light[i * per:(i + 1) * per])
    return cycle


# -- minsum-large -------------------------------------------------------------


def _minsum_large(rng: random.Random, work: Path, sizes: dict) -> Workload:
    vcg_blocks = [rng.randint(*sizes["vcg_blocks"]) for _ in range(4)]
    dmst_blocks = [rng.randint(*sizes["dmst_blocks"]) for _ in range(8)]
    vcg = [_vcg_op(rng, work, f"vcg{i}", b) for i, b in enumerate(vcg_blocks)]
    dmst = [_adversary_op(work, "vcg", "dmst", 2, b) for b in dmst_blocks]
    half_vcg = _vcg_op(rng, work, "vcg-half", max(vcg_blocks[0] // 2, 1))
    half_dmst = _adversary_op(work, "vcg", "dmst", 2, max(dmst_blocks[0] // 2, 1))
    return Workload("minsum-large", _interleave(vcg, dmst),
                    [(vcg[0], half_vcg), (dmst[0], half_dmst)])


def _vcg_op(rng: random.Random, work: Path, stem: str, blocks: int) -> Op:
    """VCG on a 3-agent plain chain with seeded rational costs.

    Plain chains keep two parallel edges per block after any agent leaves, so
    no agent is pivotal and every Clarke payment is defined.
    """
    from minmax_procurement import ChainSpec, dump_instance, gen_chain

    agents = 3
    chain = gen_chain(ChainSpec(agents, blocks))
    costs = {e.id: Fraction(rng.randint(1, 1000), rng.randint(1, 16))
             for e in chain.edges}
    inst = chain.with_costs(costs)
    path = work / f"{stem}.json"
    dump_instance(inst, path)
    # gen_chain numbers edges block-major, agent-minor
    block_costs = [tuple(costs[k * agents + a] for a in range(agents))
                   for k in range(blocks)]
    return Op("vcg", ["vcg", "--instance", str(path), "--out", str(work / f"{stem}.out.json")],
              lambda report: check_vcg(report, inst, block_costs))


def check_vcg(report: dict, inst, block_costs: list[tuple[Fraction, ...]]) -> None:
    """Allocation is a path; payments match the plain chain's closed form.

    On a plain chain the min-sum optimum takes the cheapest edge of every
    block, so SC and each SC without agent i are sums of per-block minima.
    """
    from minmax_procurement import Solution, validate_solution

    require(report["command"] == "vcg", "not a vcg report")
    alloc = Solution(report["allocation"])
    require(validate_solution(inst, alloc), "allocation is not an s-t path")
    n = inst.agent_count
    shares = [Fraction(0)] * n
    for eid in alloc.edge_ids:
        edge = inst.edge_by_id(eid)
        shares[edge.owner - 1] += edge.cost
    sc = sum((min(c) for c in block_costs), Fraction(0))
    require(sum(shares, Fraction(0)) == sc, "allocation is not min-sum optimal")
    require(Fraction(report["max_agent_cost"]) == max(shares), "max_agent_cost is wrong")
    rows = report["agents"]
    require([row["agent"] for row in rows] == list(range(1, n + 1)), "agent rows are wrong")
    for row in rows:
        i = row["agent"]
        cost, payment, utility = (Fraction(row[k]) for k in ("cost", "payment", "utility"))
        require(utility >= 0, f"agent {i} has negative utility")
        require(cost == shares[i - 1], f"agent {i} cost is wrong")
        require(payment - cost == utility, f"agent {i} utility is not payment - cost")
        sc_without = sum((min(c[j] for j in range(n) if j != i - 1) for c in block_costs),
                         Fraction(0))
        require(payment == sc_without - (sc - cost), f"agent {i} Clarke payment is wrong")


# -- adversary ops (minsum-large, adversary-chain-exact) ----------------------


def _adversary_op(work: Path, alg: str, mode: str, agents: int, blocks: int) -> Op:
    stem = f"adv-{alg}-{mode}-{agents}x{blocks}"
    argv = ["adversary", "run", "--alg", alg, "--mode", mode, "--agents", str(agents),
            "--blocks", str(blocks), "--out", str(work / f"{stem}.out.json")]
    topology = []  # built on first check, outside the timed op

    def check(report: dict) -> None:
        if not topology:
            from minmax_procurement import ChainSpec
            from minmax_procurement.adversary import build_adversary_instance

            topology.append(build_adversary_instance(ChainSpec(agents, blocks), mode)[0])
        check_adversary(report, topology[0], alg)

    kind = f"adversary-{alg}-{mode}" + ("" if alg == "vcg" else f"-{agents}")
    return Op(kind, argv, check)


def check_adversary(report: dict, topology, alg: str) -> None:
    """Every allocation is feasible; the certificate matches the algorithm.

    Feasibility depends only on the topology, which the adversary never
    changes, so each trace allocation is validated on the unit-cost instance.
    """
    from minmax_procurement import Solution, validate_solution

    require(report["command"] == "adversary", "not an adversary report")
    require(report["trace"], "empty adversary trace")
    for step in report["trace"]:
        require(validate_solution(topology, Solution(step["allocation"])),
                "infeasible allocation in the adversary trace")
    if alg == "vcg":
        require(report["outcome"] == "ratio", "vcg did not yield a ratio certificate")
        ratio = report["ratio"]
        certified = Fraction(ratio["certified_ratio"])
        require(certified == Fraction(ratio["algorithm_cost"]) / Fraction(ratio["opt_upper_bound"]),
                "certified ratio is not algorithm_cost / opt_upper_bound")
        if ratio["guaranteed_bound"] is not None:
            require(certified >= Fraction(ratio["guaranteed_bound"]),
                    "certified ratio is below the guaranteed bound")
    else:
        require(report["outcome"] == "monotonicity-violation",
                "chain-exact did not yield a monotonicity violation")
        require(report["violation_reverified"] is True, "violation does not re-verify")
        check_violation(report["violation"], topology)


def check_violation(violation: dict, topology) -> None:
    """Recompute the four monotonicity terms from the witness's own tables.

    The terms are t_i(x), t'_i(x'), t_i(x') and t'_i(x): agent i's edge
    costs under t and t', summed over the allocations x and x'.
    """
    from minmax_procurement import Solution, validate_solution

    agent = violation["agent"]
    own = sorted(e.id for e in topology.edges if e.owner == agent)
    base = {eid: Fraction(c) for eid, c in violation["base_costs"]}
    perturbed = {eid: Fraction(c) for eid, c in violation["perturbed_costs"]}
    require(sorted(base) == own and sorted(perturbed) == own,
            "violation cost tables are not the agent's edges")
    x, x_prime = violation["allocation"], violation["perturbed_allocation"]
    for key in ("allocation", "perturbed_allocation"):
        require(validate_solution(topology, Solution(violation[key])),
                f"violation {key} is infeasible")

    def cost(table: dict, alloc: list[int]) -> Fraction:
        return sum((table[eid] for eid in alloc if eid in table), Fraction(0))

    terms = (cost(base, x), cost(perturbed, x_prime), cost(base, x_prime), cost(perturbed, x))
    require(tuple(Fraction(t) for t in violation["terms"]) == terms,
            "violation terms do not match the cost tables and allocations")
    a, b, c, d = terms
    require(a + b > c + d, "violation terms are not a strict violation")


# -- adversary-chain-exact ----------------------------------------------------


def _adversary_chain_exact(rng: random.Random, work: Path, sizes: dict) -> Workload:
    two_blocks = [rng.randint(*sizes["two_blocks"]) for _ in range(3)]
    three_blocks = [rng.randint(*sizes["three_blocks"]) for _ in range(6)]
    two = [_adversary_op(work, "chain-exact", "path", 2, b) for b in two_blocks]
    three = [_adversary_op(work, "chain-exact", "path", 3, b) for b in three_blocks]
    half = _adversary_op(work, "chain-exact", "path", 2, max(two_blocks[0] // 2, 1))
    return Workload("adversary-chain-exact", _interleave(two, three), [(two[0], half)])


# -- ptas-eps -----------------------------------------------------------------


def _ptas_eps(rng: random.Random, work: Path, sizes: dict) -> Workload:
    light = [_ptas_op(rng, work, f"ptas-light{i}", *sizes["light"]) for i in range(12)]
    medium = [_ptas_op(rng, work, f"ptas-medium{i}", *sizes["medium"]) for i in range(5)]
    heavy = _ptas_op(rng, work, "ptas-heavy", *sizes["heavy"])
    half_blocks = max(sizes["heavy"][0] // 2, 1)
    half = _ptas_op(rng, work, "ptas-half", half_blocks, sizes["heavy"][1])
    # light ops fill the first 2/3 of the sorted times (p50), medium the
    # next 28% (p90); the one heavy op carries the exact-power memory growth
    cycle = _interleave(medium, light[:10]) + [heavy] + light[10:]
    # big-integer arithmetic on exact powers speeds up about half as much
    # as the kernel in the machine's faster phases: across ten runs whose
    # kernel speed varied by 1.8x, the fitted slope was 0.54
    return Workload("ptas-eps", cycle, [(heavy, half)], speed_exponent=0.55)


def _ptas_op(rng: random.Random, work: Path, stem: str, blocks: int, epsilon: str) -> Op:
    """The approximation scheme on a 2-agent expanded chain with seeded base costs."""
    from minmax_procurement import ChainSpec, dump_instance, expand_chain, gen_chain

    chain = gen_chain(ChainSpec(2, blocks))
    costs = {e.id: Fraction(rng.randint(100, 110), 100) for e in chain.edges}
    inst, indexing = expand_chain(chain.with_costs(costs), Fraction(1, 2 * blocks))
    path = work / f"{stem}.json"
    dump_instance(inst, path)
    argv = ["ptas", "--instance", str(path), "--epsilon", epsilon,
            "--out", str(work / f"{stem}.out.json")]
    optimum = []  # exact optimum, computed on first check outside the timed op

    def check(report: dict) -> None:
        if not optimum:
            optimum.append(chain_optimum(inst, indexing))
        check_ptas(report, inst, Fraction(epsilon), optimum[0])

    return Op(f"ptas-{epsilon}", argv, check)


def chain_optimum(inst, indexing) -> Fraction:
    """Exact min-max optimum of an expanded chain by the chain DP."""
    from minmax_procurement import chain_minmax_exact

    n = inst.agent_count
    vectors = []
    for routes in indexing.blocks:
        block = []
        for route in routes:
            vec = [Fraction(0)] * n
            for eid in route.edge_ids:
                edge = inst.edge_by_id(eid)
                vec[edge.owner - 1] += edge.cost
            block.append(tuple(vec))
        vectors.append(block)
    return chain_minmax_exact(n, vectors).value


def check_ptas(report: dict, inst, epsilon: Fraction, optimum: Fraction) -> None:
    from minmax_procurement import Solution, cost_summary, validate_solution

    require(report["command"] == "ptas", "not a ptas report")
    witness = Solution(report["witness"])
    require(validate_solution(inst, witness), "witness is not an s-t path")
    value = Fraction(report["value"])
    require(cost_summary(inst, witness).max_cost == value, "value is not the witness's max cost")
    require(optimum <= value <= (1 + epsilon) ** 2 * optimum,
            "value is outside [OPT, (1+eps)^2 OPT]")


# -- audit-small --------------------------------------------------------------


def _audit_small(rng: random.Random, work: Path, sizes: dict) -> Workload:
    def op(kind: str, trials: int) -> Op:
        audit_seed = rng.randrange(10**6)
        stem = f"audit-{kind}-{trials}-{audit_seed}"
        argv = ["audit", kind, "--trials", str(trials), "--seed", str(audit_seed),
                "--out", str(work / f"{stem}.out.json")]
        return Op(f"audit-{kind}", argv, lambda report: check_audit(report, trials))

    truth = [op("truthfulness", sizes["truthfulness"]) for _ in range(4)]
    mono = [op("monotonicity", sizes["monotonicity"]) for _ in range(8)]
    half = op("truthfulness", max(sizes["truthfulness"] // 2, 1))
    return Workload("audit-small", _interleave(truth, mono), [(truth[0], half)])


def check_audit(report: dict, trials: int) -> None:
    require(report["command"] == "audit", "not an audit report")
    require(report["config"]["trials"] == trials, "trial count is wrong")
    require(report["passes"] == trials and report["violations"] == [],
            "the audit found violations of vcg")


def read_report(op: Op) -> tuple[bytes, dict]:
    data = op.out.read_bytes()
    return data, json.loads(data)
