"""Acceptance suite: ten end-to-end checks with per-criterion verdict lines.

Each test prints one "criterion N: PASS/FAIL - <summary>" line (run pytest
with -s to see them) and enforces its runtime budget.
"""

import random
import time
from fractions import Fraction

import pytest

from minmax_procurement import (
    ChainSpec,
    Edge,
    Instance,
    PATH,
    Solution,
    agent_cost,
    brute_minmax,
    chain_exact_allocator,
    chain_minmax_exact,
    check_truthfulness,
    check_weak_monotonicity,
    clarke_payments,
    cost_summary,
    expand_chain,
    gen_chain,
    min_sum_optimum,
    minmax_ptas,
    pareto_eps,
    preprocess,
    run_adversary,
    vcg_mechanism,
    vcg_allocate,
)
from minmax_procurement.adversary import MODE_DMST, MODE_PATH, build_adversary_instance
from minmax_procurement.audit import (
    random_arborescence_instance,
    random_path_instance,
    random_perturbation,
)
from minmax_procurement.solvers import _enumerate_paths

F = Fraction


def verdict(number, ok, summary):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {number}: {summary}"


def timed(budget_seconds):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over budget"
        return elapsed

    return check


def random_integer_cost_instance(rng, max_nodes, agents):
    """Connected path instance, integer costs 1..10."""
    nodes = rng.randint(3, max_nodes)
    order = list(range(nodes))
    rng.shuffle(order)
    edges, eid = [], 0
    for u, v in zip(order, order[1:]):
        edges.append(Edge(eid, u, v, rng.randint(1, agents), F(rng.randint(1, 10))))
        eid += 1
    for _ in range(rng.randint(0, nodes)):
        u, v = rng.sample(range(nodes), 2)
        edges.append(Edge(eid, u, v, rng.randint(1, agents), F(rng.randint(1, 10))))
        eid += 1
    return Instance(False, nodes, tuple(edges), agents, PATH, order[0], order[-1])


def test_criterion_1_adversary_vs_vcg_path_two_agents():
    done = timed(10)
    spec = ChainSpec(2, 64, helper_eps=F(1, 128))
    report = run_adversary(vcg_allocate, spec, MODE_PATH)
    ok = (report.outcome == "ratio"
          and report.ratio.certified_ratio >= F(3, 2)
          and report.ratio.certified_ratio >= F(19, 10))
    elapsed = done()
    verdict(1, ok, f"certified ratio {report.ratio.certified_ratio} "
                   f"(~{float(report.ratio.certified_ratio):.4f}) >= 1.9, "
                   f"{elapsed:.2f}s")


def test_criterion_2_adversary_vs_vcg_path_three_agents():
    done = timed(60)
    spec = ChainSpec(3, 300, helper_eps=F(1, 600))
    report = run_adversary(vcg_allocate, spec, MODE_PATH)
    ok = (report.outcome == "ratio"
          and report.ratio.certified_ratio >= F(66, 25))
    elapsed = done()
    verdict(2, ok, f"certified ratio {report.ratio.certified_ratio} "
                   f"(~{float(report.ratio.certified_ratio):.4f}) >= 66/25, "
                   f"{elapsed:.2f}s")


def test_criterion_3_adversary_vs_vcg_directed_arborescence():
    done = timed(60)
    spec = ChainSpec(2, 64, helper_eps=F(1, 512))
    report = run_adversary(vcg_allocate, spec, MODE_DMST)
    ok = (report.outcome == "ratio"
          and report.ratio.certified_ratio >= F(3, 2))
    elapsed = done()
    verdict(3, ok, f"certified ratio {report.ratio.certified_ratio} "
                   f"(~{float(report.ratio.certified_ratio):.4f}) >= 3/2, "
                   f"{elapsed:.2f}s")


def test_criterion_4_exact_minmax_allocator_violates_monotonicity():
    done = timed(30)
    spec = ChainSpec(2, 40)
    _, indexing = build_adversary_instance(spec, MODE_PATH)
    report = run_adversary(chain_exact_allocator(indexing), spec, MODE_PATH)
    ok = report.outcome == "monotonicity-violation"
    strict = False
    if ok:
        w = report.violation
        a, b, c, d = w.terms
        strict = w.reverify() and a + b > c + d
        ok = strict
    elapsed = done()
    verdict(4, ok, f"strict violation witness re-verified={strict}, "
                   f"{elapsed:.2f}s")


def test_criterion_5_approximation_bound_on_random_instances():
    done = timed(60)
    eps = F(1, 4)
    bound_factor = (1 + eps) ** 2
    failures = []
    for seed in range(100):
        rng = random.Random(seed)
        inst = random_integer_cost_instance(rng, 12, rng.randint(1, 3))
        approx = minmax_ptas(inst, eps).value
        exact = brute_minmax(inst).value
        if approx > bound_factor * exact:
            failures.append(seed)
    elapsed = done()
    verdict(5, not failures,
            f"(5/4)^2 bound on 100/100 random instances "
            f"(failures: {failures or 'none'}), {elapsed:.2f}s")


def test_criterion_6_pareto_coverage_on_random_instances():
    done = timed(60)
    eps = F(1, 4)
    checked = failures = 0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        inst = random_integer_cost_instance(rng, 10, 2)
        pruned, weights, config = preprocess(inst, eps)
        if config.baseline_sp == 0:
            continue
        outs = [lab.vector for lab in pareto_eps(pruned, weights, eps)]
        vectors = [
            tuple(sum(ws) for ws in zip(*(weights[e] for e in ids)))
            for ids in _enumerate_paths(pruned)
        ]
        pareto_points = [
            v for v in vectors
            if not any(w != v and all(a <= b for a, b in zip(w, v))
                       for w in vectors)
        ]
        for p in pareto_points:
            checked += 1
            if not any(all(o <= (1 + eps) * c for o, c in zip(out, p))
                       for out in outs):
                failures += 1
    elapsed = done()
    verdict(6, failures == 0 and checked > 0,
            f"{checked} Pareto points all (1+eps)-covered "
            f"({failures} failures), {elapsed:.2f}s")


def test_criterion_7_social_cost_sandwich_and_n_approximation():
    done = timed(120)
    failures = []
    for seed in range(200):
        rng = random.Random(seed)
        inst = (random_path_instance(rng, max_nodes=8) if seed % 2 == 0
                else random_arborescence_instance(rng, max_nodes=8))
        n = inst.agent_count
        sc = min_sum_optimum(inst).value
        opt = brute_minmax(inst).value
        alloc_max = cost_summary(inst, vcg_allocate(inst)).max_cost
        if not (F(sc, n) <= opt <= sc and alloc_max <= n * opt):
            failures.append(seed)
    elapsed = done()
    verdict(7, not failures,
            f"SC/n <= OPT <= SC and max cost <= n*OPT on 200/200 instances, "
            f"{elapsed:.2f}s")


def test_criterion_8_vcg_truthfulness_and_monotonicity_probes():
    done = timed(120)
    mono_viol = truth_viol = 0
    for seed in range(1000):
        rng = random.Random(seed)
        agents = rng.randint(2, 3)
        inst = (random_path_instance(rng, agents=agents) if seed % 2 == 0
                else random_arborescence_instance(rng, agents=agents))
        agent = rng.randint(1, inst.agent_count)
        alloc = vcg_allocate(inst)
        pert = random_perturbation(rng, inst, agent, alloc)
        if check_weak_monotonicity(vcg_allocate, inst, pert) is not None:
            mono_viol += 1
        if seed % 2 == 0:  # payments need instances with no pivotal agent
            if check_truthfulness(vcg_mechanism, inst, agent, pert) is not None:
                truth_viol += 1
    truth_probes = 0
    for seed in range(1000):
        rng = random.Random(50_000 + seed)
        inst = random_path_instance(rng, agents=rng.randint(2, 3))
        agent = rng.randint(1, inst.agent_count)
        pert = random_perturbation(rng, inst, agent, vcg_allocate(inst))
        truth_probes += 1
        if check_truthfulness(vcg_mechanism, inst, agent, pert) is not None:
            truth_viol += 1
    elapsed = done()
    verdict(8, mono_viol == 0 and truth_viol == 0,
            f"1000 monotonicity + {truth_probes + 500} truthfulness probes, "
            f"0 violations, {elapsed:.2f}s")


def test_criterion_9_clarke_payment_worked_example():
    done = timed(10)
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 0, 1, 2, F(3)))
    inst = Instance(False, 2, edges, 2, PATH, 0, 1)
    alloc = vcg_allocate(inst)
    payments = clarke_payments(inst, alloc)
    utilities = tuple(payments[a - 1] - agent_cost(inst, alloc, a) for a in (1, 2))
    ok = (alloc.edge_ids == {0}
          and payments == (F(3), F(0))
          and utilities == (F(2), F(0))
          and all(u >= 0 for u in utilities))
    done()
    verdict(9, ok, f"allocation={sorted(alloc.edge_ids)}, "
                   f"P={tuple(map(str, payments))}, "
                   f"utilities={tuple(map(str, utilities))}")


def test_criterion_10_chain_solver_agrees_with_bruteforce():
    done = timed(60)
    checked = failures = 0
    for n in (2, 3):
        for blocks in range(1, 7):
            spec = ChainSpec(n, blocks)
            inst, indexing = expand_chain(gen_chain(spec),
                                          spec.eps_for(MODE_PATH))
            alg = chain_exact_allocator(indexing)
            # unit pattern plus every post-transformation pattern reached by
            # zeroing the driver's selections agent by agent
            patterns = [inst]
            cur = inst
            sol = alg(cur)
            eps = spec.eps_for(MODE_PATH)
            for agent in range(2, n + 1):
                new_costs = {}
                for e in cur.agent_edges(agent):
                    new_costs[e.id] = (F(0) if e.id in sol.edge_ids
                                       else e.cost + eps)
                cur = cur.with_costs(new_costs)
                patterns.append(cur)
                sol = alg(cur)
            for pattern in patterns:
                vectors, edge_lists = [], []
                for routes in indexing.blocks:
                    vecs, ids = [], []
                    for route in routes:
                        v = [F(0)] * n
                        for eid in route.edge_ids:
                            e = pattern.edge_by_id(eid)
                            v[e.owner - 1] += e.cost
                        vecs.append(tuple(v))
                        ids.append(route.edge_ids)
                    vectors.append(vecs)
                    edge_lists.append(ids)
                dp = chain_minmax_exact(n, vectors, edge_lists)
                oracle = brute_minmax(pattern)
                checked += 1
                if dp.value != oracle.value:
                    failures += 1
    elapsed = done()
    verdict(10, failures == 0,
            f"chain solver == brute force on {checked}/{checked} "
            f"block-structured instances, {elapsed:.2f}s")
