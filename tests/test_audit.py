"""Truthfulness, weak-monotonicity, and edge-stability probes."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from minmax_procurement import (
    Edge,
    Instance,
    PATH,
    Perturbation,
    Solution,
    check_truthfulness,
    check_weak_monotonicity,
    edge_stability_perturbation,
    edge_stability_witness,
    vcg_mechanism,
    vcg_allocate,
)
from minmax_procurement.adversary import ChainSpec, expand_chain, gen_chain
from minmax_procurement.graphs import agent_cost, scaled_loads
from minmax_procurement.audit import (
    EDGE_STABILITY,
    TRUTHFULNESS,
    ViolationWitness,
    InfeasibleAllocationError,
    is_strict_edge_stability,
    random_arborescence_instance,
    random_cost,
    random_path_instance,
    random_perturbation,
)
from minmax_procurement.solvers import NoFeasibleSolutionError, scaled_min_sum_value
from minmax_procurement.vcg import PivotalInfeasibleError

F = Fraction


def parallel_instance(costs):
    edges = tuple(Edge(i, 0, 1, i + 1, F(c)) for i, c in enumerate(costs))
    return Instance(False, 2, edges, len(costs), PATH, 0, 1)


# -- weak monotonicity --------------------------------------------------------


def test_identity_perturbation_passes_with_equality():
    inst = parallel_instance([1, 3])
    pert = Perturbation(1, {0: F(1)})
    assert check_weak_monotonicity(vcg_allocate, inst, pert) is None


def test_stubborn_constant_algorithm_is_monotone():
    inst = parallel_instance([1, 3])
    fixed = Solution([1])
    stubborn = lambda _: fixed
    for cost in (F(0), F(2), F(10)):
        pert = Perturbation(1, {0: cost})
        assert check_weak_monotonicity(stubborn, inst, pert) is None


def test_vcg_passes_random_monotonicity_probes():
    for seed in range(300):
        rng = random.Random(seed)
        inst = random_path_instance(rng, agents=rng.randint(2, 3))
        agent = rng.randint(1, inst.agent_count)
        alloc = vcg_allocate(inst)
        pert = random_perturbation(rng, inst, agent, alloc)
        assert check_weak_monotonicity(vcg_allocate, inst, pert) is None


def test_anti_monotone_algorithm_is_caught():
    inst = parallel_instance([1, 1])

    def perverse(i):
        # picks agent 1's edge exactly when it is the more expensive one
        a, b = i.edge_by_id(0).cost, i.edge_by_id(1).cost
        return Solution([0]) if a >= b else Solution([1])

    pert = Perturbation(1, {0: F(1, 2)})
    witness = check_weak_monotonicity(perverse, inst, pert)
    assert witness is not None
    assert witness.reverify()
    a, b, c, d = witness.terms
    assert a + b > c + d


def test_infeasible_allocation_is_a_contract_breach_not_a_violation():
    inst = parallel_instance([1, 3])
    broken = lambda _: Solution([0, 1])
    with pytest.raises(InfeasibleAllocationError):
        check_weak_monotonicity(broken, inst, Perturbation(1, {0: F(2)}))


def test_perturbation_must_cover_only_owned_edges():
    inst = parallel_instance([1, 3])
    with pytest.raises(ValueError, match="not owned"):
        Perturbation(1, {1: F(2)}).apply(inst)
    with pytest.raises(ValueError, match="negative"):
        Perturbation(1, {0: F(-1)}).apply(inst)


# -- truthfulness -------------------------------------------------------------


def test_truthful_report_passes_with_equality():
    inst = parallel_instance([1, 3])
    assert check_truthfulness(vcg_mechanism, inst, Perturbation(1, {0: F(1)})) is None


def test_misreport_that_keeps_the_win_does_not_help():
    inst = parallel_instance([1, 3])
    assert check_truthfulness(vcg_mechanism, inst, Perturbation(1, {0: F(2)})) is None


def test_misreport_that_loses_the_auction_does_not_help():
    inst = parallel_instance([1, 3])
    assert check_truthfulness(vcg_mechanism, inst, Perturbation(1, {0: F(4)})) is None


def test_vcg_passes_random_truthfulness_probes():
    for seed in range(300):
        rng = random.Random(10_000 + seed)
        inst = random_path_instance(rng, agents=rng.randint(2, 3))
        agent = rng.randint(1, inst.agent_count)
        alloc = vcg_allocate(inst)
        pert = random_perturbation(rng, inst, agent, alloc)
        assert check_truthfulness(vcg_mechanism, inst, pert) is None


def first_price(inst, agent):
    """Pay-your-bid: the min-sum allocation, and the agent paid its reported cost."""
    alloc = vcg_allocate(inst)
    return alloc, agent_cost(inst, alloc, agent)


def test_pay_your_bid_mechanism_is_untruthful():
    inst = parallel_instance([1, 3])
    witness = check_truthfulness(first_price, inst, Perturbation(1, {0: F(2)}))
    assert witness is not None and witness.reverify()
    assert witness.terms[0] < witness.terms[1]  # overbidding strictly helps
    assert witness.agent == 1
    # the probed agent is the misreport's own: here agent 2, on edge 1
    witness = check_truthfulness(first_price, parallel_instance([3, 1]),
                                 Perturbation(2, {1: F(2)}))
    assert witness.agent == 2 and witness.reverify()
    assert (witness.base_costs, witness.perturbed_costs) == (((1, F(1)),), ((1, F(2)),))


# -- the former truthfulness check as the oracle --------------------------------


class Outcome(NamedTuple):
    """The former `MechanismOutcome`: an allocation and every agent's payment."""

    allocation: Solution
    payments: tuple

    def utility(self, inst, agent):
        return self.payments[agent - 1] - agent_cost(inst, self.allocation, agent)


def former_run_vcg(inst):
    """The former `run_vcg`: the min-sum allocation and every agent's Clarke
    payment, from the former payment loop."""
    alloc = vcg_allocate(inst)
    scale = inst.scaled_costs()[0]
    loads = scaled_loads(inst, alloc.edge_ids)
    total = sum(loads)
    owners = {e.owner for e in inst.edges}
    payments = []
    for agent in range(1, inst.agent_count + 1):
        if agent not in owners:
            payments.append(F(0))
            continue
        try:
            sc_without = scaled_min_sum_value(inst, agent)
        except NoFeasibleSolutionError:
            raise PivotalInfeasibleError(agent) from None
        payments.append(F(sc_without - (total - loads[agent - 1]), scale))
    return Outcome(alloc, tuple(payments))


def former_first_price(inst):
    alloc = vcg_allocate(inst)
    return Outcome(alloc, tuple(agent_cost(inst, alloc, a)
                                for a in range(1, inst.agent_count + 1)))


def former_check_truthfulness(mech, inst, agent, misreport):
    """The former check: the whole outcome under each profile, the reported
    profile built through the validating constructor."""
    reported = Instance(inst.directed, inst.node_count, tuple(
        Edge(e.id, e.tail, e.head, e.owner, F(misreport.new_costs.get(e.id, e.cost)))
        for e in inst.edges), inst.agent_count, inst.mode, inst.source, inst.target_or_root)
    truthful, deviated = mech(inst), mech(reported)
    u_truth, u_dev = truthful.utility(inst, agent), deviated.utility(inst, agent)
    if u_truth >= u_dev:
        return None
    base, changed = (tuple((e.id, e.cost) for e in profile.agent_edges(agent))
                     for profile in (inst, reported))
    return ViolationWitness(TRUTHFULNESS, agent, base, changed, truthful.allocation,
                            deviated.allocation, (u_truth, u_dev, F(0), F(0)))


def fresh(inst):
    return Instance(inst.directed, inst.node_count, inst.edges, inst.agent_count,
                    inst.mode, inst.source, inst.target_or_root)


@pytest.mark.parametrize("mech, former, least, most", [
    (vcg_mechanism, former_run_vcg, 0, 0),
    (first_price, former_first_price, 20, 300),  # pay-your-bid fails on 27 probes
])
def test_truthfulness_verdicts_and_witnesses_match_the_former_check(mech, former,
                                                                    least, most):
    found = 0
    for seed in range(300):
        rng = random.Random(30_000 + seed)
        inst = random_path_instance(rng, agents=2 + seed % 2)
        agent = rng.randint(1, inst.agent_count)
        pert = random_perturbation(rng, inst, agent, vcg_allocate(inst))
        expected = former_check_truthfulness(former, fresh(inst), agent, pert)
        assert check_truthfulness(mech, inst, pert) == expected, seed
        if expected is not None:
            assert expected.reverify()
            found += 1
    assert least <= found <= most


def test_only_the_probed_agent_is_priced():
    # agent 2 owns the only edge into the target; agents 1 and 3 compete before it
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 0, 1, 3, F(2)), Edge(2, 1, 2, 2, F(1)))
    inst = Instance(False, 3, edges, 3, PATH, 0, 2)
    pert = Perturbation(1, {0: F(3, 2)})
    with pytest.raises(PivotalInfeasibleError):
        former_check_truthfulness(former_run_vcg, inst, 1, pert)
    assert check_truthfulness(vcg_mechanism, inst, pert) is None
    with pytest.raises(PivotalInfeasibleError) as err:
        check_truthfulness(vcg_mechanism, inst, Perturbation(2, {2: F(2)}))
    assert err.value.agent == 2


@pytest.mark.parametrize("new_costs, message", [
    ({0: F(1)}, "edge 0 is not owned by agent 2"),
    ({2: F(-1)}, "perturbed cost of edge 2 is negative"),
])
def test_a_bad_misreport_is_refused_before_any_solve(new_costs, message):
    # agent 2 is pivotal, so pricing it first would raise PivotalInfeasibleError
    edges = (Edge(0, 0, 1, 1, F(1)), Edge(1, 0, 1, 3, F(2)), Edge(2, 1, 2, 2, F(1)))
    inst = Instance(False, 3, edges, 3, PATH, 0, 2)
    asked = []

    def mech(profile, agent):
        asked.append(agent)
        return vcg_mechanism(profile, agent)

    with pytest.raises(ValueError, match=f"^{message}$"):
        check_truthfulness(mech, inst, Perturbation(2, new_costs))
    assert asked == []


@pytest.mark.parametrize("agent", [0, -1, 3, 99])
def test_a_perturbation_of_no_agent_of_the_instance_is_refused(agent):
    inst = gen_chain(ChainSpec(2, 2))
    pert = Perturbation(agent, {})
    message = f"^agent {agent} is not one of 1..2$"
    with pytest.raises(ValueError, match=message):
        check_weak_monotonicity(vcg_allocate, inst, pert)
    asked = []
    with pytest.raises(ValueError, match=message):
        check_truthfulness(lambda *probe: asked.append(probe), inst, pert)
    assert asked == []


@pytest.mark.parametrize("agent", [0, -1, 3, 99])
def test_a_probe_of_no_agent_of_the_instance_is_refused(agent):
    # each of these once answered for no edges: an empty perturbation, or a
    # vacuous strictness verdict
    inst = gen_chain(ChainSpec(2, 2))
    alloc = vcg_allocate(inst)
    message = f"^agent {agent} is not one of 1..2$"
    for probe in (lambda: edge_stability_perturbation(inst, alloc, agent, 0, 1),
                  lambda: is_strict_edge_stability(inst, alloc, Perturbation(agent, {})),
                  lambda: random_perturbation(random.Random(7), inst, agent),
                  lambda: random_perturbation(random.Random(7), inst, agent, alloc),
                  lambda: inst.agent_edges(agent),
                  lambda: inst.owned(agent)):
        with pytest.raises(ValueError, match=message):
            probe()


# -- edge-stability probes ----------------------------------------------------


def test_edge_stability_perturbation_shapes():
    inst = parallel_instance([1, 1])
    alloc = Solution([0])
    pert = edge_stability_perturbation(inst, alloc, 1, F(1, 2), F(1, 8))
    assert is_strict_edge_stability(inst, alloc, pert)
    assert pert.new_costs == {0: F(1, 2)}
    pert2 = edge_stability_perturbation(inst, alloc, 2, F(1, 2), F(1, 8))
    assert is_strict_edge_stability(inst, alloc, pert2)
    assert pert2.new_costs == {1: F(9, 8)}  # no selected edges: bump only


def test_shrink_zero_is_the_adversary_transformation():
    inst, _ = expand_chain(gen_chain(ChainSpec(2, 2)), F(1, 8))
    alloc = vcg_allocate(inst)
    eps = F(1, 8)
    for agent in (1, 2):
        pert = edge_stability_perturbation(inst, alloc, agent, 0, eps)
        assert pert.new_costs == {
            e.id: F(0) if e.id in alloc.edge_ids else e.cost + eps
            for e in inst.agent_edges(agent)}
        assert is_strict_edge_stability(inst, alloc, pert)
    for shrink in (1, F(-1, 2)):
        with pytest.raises(ValueError, match="shrink"):
            edge_stability_perturbation(inst, alloc, 1, shrink, eps)


def test_edge_stability_perturbation_on_expanded_chain_agent_two():
    inst, indexing = expand_chain(gen_chain(ChainSpec(2, 1)), F(1, 8))
    alloc = vcg_allocate(inst)
    pert = edge_stability_perturbation(inst, alloc, 2, F(1, 2), F(1, 8))
    assert is_strict_edge_stability(inst, alloc, pert)
    selected_helper = next(
        e for e in inst.agent_edges(2) if e.id in alloc.edge_ids)
    unselected_main = next(
        e for e in inst.agent_edges(2) if e.id not in alloc.edge_ids and e.cost == 1)
    assert pert.new_costs[selected_helper.id] == F(1, 16)
    assert pert.new_costs[unselected_main.id] == 1 + F(1, 8)


def test_zero_cost_selected_edge_makes_perturbation_non_strict():
    inst = parallel_instance([0, 3])
    alloc = Solution([0])
    pert = edge_stability_perturbation(inst, alloc, 1, F(1, 2), F(1, 8))
    assert pert.new_costs == {0: F(0)}
    assert not is_strict_edge_stability(inst, alloc, pert)


def test_vcg_passes_stability_probes():
    for seed in range(200):
        rng = random.Random(seed)
        inst = random_path_instance(rng, agents=rng.randint(2, 3))
        agent = rng.randint(1, inst.agent_count)
        alloc = vcg_allocate(inst)
        pert = edge_stability_perturbation(inst, alloc, agent, F(1, 2), F(1, 8))
        if not is_strict_edge_stability(inst, alloc, pert):
            continue
        owned = {e.id for e in inst.agent_edges(agent)}
        assert vcg_allocate(pert.apply(inst)).edge_ids & owned == alloc.edge_ids & owned
        assert check_weak_monotonicity(vcg_allocate, inst, pert) is None


def test_stability_failure_is_a_strict_monotonicity_violation():
    inst = parallel_instance([1, 1])

    def perverse(i):
        a, b = i.edge_by_id(0).cost, i.edge_by_id(1).cost
        return Solution([0]) if a >= b else Solution([1])

    alloc = perverse(inst)
    pert = edge_stability_perturbation(inst, alloc, 1, F(1, 2), F(1, 8))
    assert is_strict_edge_stability(inst, alloc, pert)
    perturbed = pert.apply(inst)
    assert perverse(perturbed) != alloc  # agent 1's selected edges changed
    witness = edge_stability_witness(inst, perturbed, pert, alloc, perverse(perturbed))
    assert witness.reverify()
    # the same pair also fails the plain monotonicity check, on the same terms
    assert check_weak_monotonicity(perverse, inst, pert).terms == witness.terms


def test_edge_stability_witness_refuses_a_pair_without_a_violation():
    inst = parallel_instance([1, 1])
    alloc = Solution([0])
    pert = edge_stability_perturbation(inst, alloc, 1, F(1, 2), F(1, 8))
    with pytest.raises(AssertionError, match="without a strict monotonicity violation"):
        edge_stability_witness(inst, pert.apply(inst), pert, alloc, alloc)


def test_monotonicity_verdict_matches_the_rational_inequality():
    # x and x' are min-sum optima of unrelated cost vectors, so the pair
    # violates monotonicity on some seeds and not on others; profiles with
    # different common denominators compare across both scales
    verdicts = set()
    for seed in range(150):
        rng = random.Random(5_000 + seed)
        inst = random_path_instance(rng, agents=2)
        agent = rng.randint(1, 2)
        pert = random_perturbation(rng, inst, agent)
        other = inst.with_costs({e.id: random_cost(rng) for e in inst.edges})
        x, x_prime = vcg_allocate(inst), vcg_allocate(other)
        perturbed = pert.apply(inst)
        witness = check_weak_monotonicity(
            lambda i: x if i is inst else x_prime, inst, pert)
        terms = (agent_cost(inst, x, agent), agent_cost(perturbed, x_prime, agent),
                 agent_cost(inst, x_prime, agent), agent_cost(perturbed, x, agent))
        violated = terms[0] + terms[1] > terms[2] + terms[3]
        assert (witness is not None) == violated, seed
        if witness is not None:
            assert witness.terms == terms and witness.reverify()
        verdicts.add(violated)
    assert verdicts == {False, True}


def test_truthful_mechanism_implies_monotone_allocation_on_sampled_pairs():
    # two truthfulness checks on a (t, t') pair imply the monotonicity
    # inequality for the pair; spot-check the implication on random probes
    for seed in range(100):
        rng = random.Random(77_000 + seed)
        inst = random_path_instance(rng, agents=2)
        agent = rng.randint(1, 2)
        alloc = vcg_allocate(inst)
        pert = random_perturbation(rng, inst, agent, alloc)
        forward = check_truthfulness(vcg_mechanism, inst, pert)
        back_inst = pert.apply(inst)
        back = Perturbation(agent, {e.id: e.cost for e in inst.agent_edges(agent)})
        backward = check_truthfulness(vcg_mechanism, back_inst, back)
        if forward is None and backward is None:
            assert check_weak_monotonicity(vcg_allocate, inst, pert) is None


def test_witnesses_reverify_from_their_own_data():
    inst = parallel_instance([1, 1])
    stubborn_flip = [Solution([0]), Solution([1])]
    calls = {"n": 0}

    def flipper(_):
        sol = stubborn_flip[calls["n"] % 2]
        calls["n"] += 1
        return sol

    witness = check_weak_monotonicity(flipper, inst, Perturbation(1, {0: F(1, 2)}))
    if witness is not None:
        a, b, c, d = witness.terms
        assert (a + b > c + d) == witness.reverify()


def test_edge_stability_witness_is_the_probe_and_adversary_witness():
    from minmax_procurement import edge_stability_witness
    from minmax_procurement.adversary import (
        MODE_PATH, build_adversary_instance, chain_exact_allocator, run_adversary)

    inst = parallel_instance([1, 1])

    def perverse(i):
        a, b = i.edge_by_id(0).cost, i.edge_by_id(1).cost
        return Solution([0]) if a >= b else Solution([1])

    pert = edge_stability_perturbation(inst, perverse(inst), 1, F(1, 2), F(1, 8))
    perturbed = pert.apply(inst)
    witness = edge_stability_witness(inst, perturbed, pert, perverse(inst), perverse(perturbed))
    probe = check_weak_monotonicity(perverse, inst, pert)
    assert witness == dataclasses.replace(probe, kind=EDGE_STABILITY)
    assert witness.terms == (F(1), F(0), F(0), F(1, 2))
    assert witness.base_costs == ((0, F(1)),) and witness.perturbed_costs == ((0, F(1, 2)),)

    # with two agents the adversary's one step perturbs its starting instance
    chain = start, _ = build_adversary_instance(ChainSpec(2, 12), MODE_PATH)
    alg = chain_exact_allocator(chain)
    violation = run_adversary(alg, chain).violation
    pert = Perturbation(violation.agent, dict(violation.perturbed_costs))
    perturbed = pert.apply(start)
    assert violation == edge_stability_witness(start, perturbed, pert, alg(start), alg(perturbed))


# -- the audit's draw stream ------------------------------------------------------

# SHA-256 of every (instance, perturbation) pair that `audit truthfulness` and
# `audit monotonicity --trials 200` hand their check at seeds 0..3
AUDIT_DRAWS_SHA256 = "d671deb0bd12d95dbf47562955aeec6a62a4711aefc57a573938378a19c4981a"


def test_the_audit_draw_stream_is_pinned(monkeypatch, tmp_path):
    # An audit report of a truthful rule holds only its pass count and an
    # empty violation list, so its golden digest does not see what
    # random_path_instance, random_arborescence_instance and
    # random_perturbation draw. This digest does.
    from minmax_procurement import audit
    from minmax_procurement.cli import main

    digest, pairs = hashlib.sha256(), []

    def record(kind, inst, pert):
        pairs.append(kind)
        edges = [[*e[:4], str(e.cost)] for e in inst.edges]
        costs = sorted((eid, str(cost)) for eid, cost in pert.new_costs.items())
        digest.update(json.dumps([kind, inst.directed, inst.node_count, inst.mode,
                                  inst.source, inst.target_or_root, inst.agent_count, edges,
                                  pert.agent, costs]).encode() + b"\n")

    monotonicity, truthfulness = audit.check_weak_monotonicity, audit.check_truthfulness

    def checked_monotonicity(alg, inst, pert):
        record("monotonicity", inst, pert)
        return monotonicity(alg, inst, pert)

    def checked_truthfulness(mech, inst, pert):
        record("truthfulness", inst, pert)
        return truthfulness(mech, inst, pert)

    monkeypatch.setattr(audit, "check_weak_monotonicity", checked_monotonicity)
    monkeypatch.setattr(audit, "check_truthfulness", checked_truthfulness)
    for kind in ("truthfulness", "monotonicity"):
        for seed in range(4):
            assert main(["audit", kind, "--trials", "200", "--seed", str(seed),
                         "--out", str(tmp_path / "audit.json")]) == 0
    assert pairs == ["truthfulness"] * 800 + ["monotonicity"] * 800
    assert digest.hexdigest() == AUDIT_DRAWS_SHA256
