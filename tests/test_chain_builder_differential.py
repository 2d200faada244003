"""The one route builder against the two chain loops it replaced.

`former_expand_chain` is the former body of `adversary.expand_chain`,
without the refusals it keeps, and `former_gen_dmst_chain` the former
`adversary.gen_dmst_chain`, kept here only as oracles. Both chains now come
from `adversary._routes`; every built instance and indexing must equal the
former ones, with the same edge ids, node numbers, owners and costs, and
`gen` must write the same bytes.
"""

import random
from fractions import Fraction

import pytest

from minmax_procurement import cli
from minmax_procurement.adversary import (
    MODE_DMST,
    MODE_PATH,
    BlockIndexing,
    BlockPath,
    ChainSpec,
    build_adversary_instance,
    expand_chain,
    gen_chain,
)
from minmax_procurement.graphs import ARBORESCENCE, PATH, Edge, Instance, as_rational, dump_instance

F = Fraction


# -- the former implementations ----------------------------------------------


def former_expand_chain(chain, eps):
    eps = as_rational(eps)
    n = chain.agent_count
    l = chain.node_count - 1
    by_block = {k: {} for k in range(l)}
    for e in chain.edges:
        by_block[min(e.tail, e.head)][e.owner] = e.cost

    edges: list[Edge] = []
    blocks: list[tuple[BlockPath, ...]] = []
    eid = 0
    next_node = l + 1  # u-nodes are 0..l; interiors appended after
    for k in range(l):
        routes = []
        for agent in range(1, n + 1):
            base = by_block[k][agent]
            interior = list(range(next_node, next_node + n - 1))
            next_node += n - 1
            nodes = [k] + interior + [k + 1]
            for j in range(1, n + 1):
                cost = base if j == agent else eps
                edges.append(Edge(eid + j - 1, nodes[j - 1], nodes[j], j, cost))
            routes.append(BlockPath(agent, tuple(range(eid, eid + n))))
            eid += n
        blocks.append(tuple(routes))
    inst = Instance(False, next_node, tuple(edges), n, PATH, 0, l)
    return inst, BlockIndexing(tuple(blocks))


def former_gen_dmst_chain(spec):
    n, l = spec.agents, spec.blocks
    base = spec.base_cost
    eps = spec.eps_for(MODE_DMST)
    edges: list[Edge] = []
    blocks: list[tuple[BlockPath, ...]] = []
    eid = 0
    next_node = l + 1
    for k in range(l):
        routes = []
        for agent in range(1, n + 1):
            interior = list(range(next_node, next_node + n - 1))
            next_node += n - 1
            nodes = [k] + interior + [k + 1]
            ids = []
            left_ids = []
            for pos in range(1, n + 1):
                owner = ((agent - 1 + pos - 1) % n) + 1
                cost = base if pos == 1 else eps
                edges.append(Edge(eid, nodes[pos - 1], nodes[pos], owner, cost))
                ids.append(eid)
                eid += 1
                if pos > 1:
                    edges.append(Edge(eid, nodes[pos], nodes[pos - 1], owner, eps))
                    left_ids.append(eid)
                    eid += 1
            routes.append(BlockPath(agent, tuple(ids), tuple(left_ids)))
        blocks.append(tuple(routes))
    inst = Instance(True, next_node, tuple(edges), n, ARBORESCENCE, 0, 0)
    return inst, BlockIndexing(tuple(blocks))


def former_build(spec, mode):
    if mode == MODE_PATH:
        return former_expand_chain(gen_chain(spec), spec.eps_for(MODE_PATH))
    return former_gen_dmst_chain(spec)


def assert_same_chain(new, old):
    (inst, indexing), (former_inst, former_indexing) = new, old
    assert inst == former_inst and indexing == former_indexing
    # Fraction(1) == 1, so also the cost types, and the reprs in full
    assert [type(e.cost) for e in inst.edges] == [type(e.cost) for e in former_inst.edges]
    assert repr(new) == repr(old)


# -- the chains ----------------------------------------------------------------


COSTS = [(1, None), (F(3, 2), None), (5, None), (1, F(1, 3)), (F(3, 2), F(1, 3)), (5, F(1, 3))]


@pytest.mark.parametrize("mode", [MODE_PATH, MODE_DMST])
@pytest.mark.parametrize("agents", range(2, 6))
def test_built_chains_are_the_former_ones(mode, agents):
    for blocks in range(1, 7):
        for base, eps in COSTS:
            spec = ChainSpec(agents, blocks, base, eps)
            assert_same_chain(build_adversary_instance(spec, mode), former_build(spec, mode))


@pytest.mark.parametrize("agents", range(2, 5))
def test_expanded_random_cost_chains_are_the_former_ones(agents):
    # seeded base costs in [1, 1.1] and helper 1/(2 blocks), as the bench's
    # approximation-scheme ops build their chains
    for seed in range(12):
        rng = random.Random(f"expand/{agents}/{seed}")
        blocks = rng.randint(1, 9)
        chain = gen_chain(ChainSpec(agents, blocks))
        chain = chain.with_costs({e.id: F(rng.randint(100, 110), 100) for e in chain.edges})
        for eps in (F(1, 2 * blocks), "1/7", 3):
            assert_same_chain(expand_chain(chain, eps), former_expand_chain(chain, eps))


@pytest.mark.parametrize("kind, mode", [("expandedchain", MODE_PATH), ("dmst-chain", MODE_DMST)])
def test_gen_writes_the_former_bytes(tmp_path, kind, mode):
    out, former = tmp_path / "gen.json", tmp_path / "former.json"
    for agents in range(2, 5):
        for blocks in range(1, 7):
            for base, eps in ((None, None), (None, "1/9"), ("3/2", None)):
                argv = ["gen", kind, f"--agents={agents}", f"--blocks={blocks}", f"--out={out}"]
                argv += [f"--{option}={value}" for option, value in (("base", base), ("eps", eps))
                         if value is not None]
                assert cli.main(argv) == 0
                spec = ChainSpec(agents, blocks, base or 1, eps)
                dump_instance(former_build(spec, mode)[0], former)
                assert out.read_bytes() == former.read_bytes(), argv
