"""The chain DP against the implementation it replaced.

`old_chain_minmax_exact` is the former DP: Fraction load vectors in a dict,
a pick tuple copied per state, a re-sort of the states by their picks at
every block, and a quadratic dominance scan, with no bound on the states.
It is kept here only as an oracle: `chain_minmax_exact` must return the same
value, choices and witness on every input. The adversary's chain-exact
allocator calls the integer DP, `scaled_chain_minmax`, on loads over the
instance's L; the former DP, given those integer loads, returns its value
over L too, and the hooks below compare the two over that same L.

The former DP takes seconds on the inputs the adversary gives it at 2 agents
and up to 81 blocks, so its outputs there are committed, keyed by a digest
of each input, in tests/former_chain_dp_outputs.json;

    PYTHONPATH=src python tests/test_chain_dp_differential.py

rewrites that file from the former DP alone.

`tuple_step_picks` is the integer DP's former per-block step: parent
pointers as nested tuples and each kept load rebuilt by slicing. One body
now serves every agent count, and it must return the same value and picks
as that step and hand the front helper the same candidates, block by block.
"""

import dataclasses
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from itertools import product
from operator import add, le
from pathlib import Path

import pytest

from minmax_procurement import adversary, chain_minmax_exact, cli, run_adversary, solvers
from minmax_procurement.adversary import ChainSpec, MODE_PATH, build_adversary_instance
from minmax_procurement.graphs import Solution
from minmax_procurement.solvers import (
    MIN_MAX, OptimumReport, StructureError, scaled_chain_minmax)

F = Fraction


# -- the former implementation -------------------------------------------------


def old_chain_minmax_exact(n, block_cost_vectors, block_edges=None):
    if n < 1:
        raise StructureError("need at least one agent")
    if not block_cost_vectors:
        raise StructureError("need at least one block")
    for k, block in enumerate(block_cost_vectors):
        if not block:
            raise StructureError(f"block {k} offers no choices")
        for c, vec in enumerate(block):
            if len(vec) != n:
                raise StructureError(
                    f"block {k} choice {c} has {len(vec)} agent costs, expected {n}")

    zero = tuple(Fraction(0) for _ in range(n))
    # load vector -> per-block choice indices (deterministic: first-found wins,
    # blocks processed left to right, choices in ascending index order)
    states = {zero: ()}
    for block in block_cost_vectors:
        nxt = {}
        for load, picks in sorted(states.items(), key=lambda kv: (kv[1], kv[0])):
            for c, vec in enumerate(block):
                new_load = tuple(a + Fraction(b) for a, b in zip(load, vec))
                if new_load not in nxt:
                    nxt[new_load] = picks + (c,)
        states = _old_prune_dominated(nxt)

    best_load, best_picks = min(
        states.items(), key=lambda kv: (max(kv[0]), kv[1]))
    value = max(best_load)
    witness = None
    if block_edges is not None:
        ids = []
        for k, c in enumerate(best_picks):
            ids.extend(block_edges[k][c])
        witness = Solution(ids)
    return OptimumReport(MIN_MAX, value, witness, choices=best_picks)


def _old_prune_dominated(states):
    items = sorted(states.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    kept = []
    for load, picks in items:
        if any(all(a <= b for a, b in zip(k, load)) for k, _ in kept):
            continue
        kept.append((load, picks))
    return dict(kept)


def tuple_step_picks(n, blocks):
    """The former per-block step of the integer DP on n-tuples of ints: the
    optimal max load and the pick sequence, with the front helper looked up
    in `solvers` at each block."""
    rest = [(0,) * n]
    for block in reversed(blocks):
        rest.append(tuple(map(add, rest[-1], map(min, zip(*block)))))
    rest.reverse()
    greedy = (0,) * n
    for block, r in zip(blocks, rest[1:]):
        greedy = min((tuple(map(add, greedy, vec)) for vec in block),
                     key=lambda load: max(map(add, load, r)))
    ub = max(greedy)
    loads = [(0,) * n]
    parents = [None]  # per state, (choice, the parent state's pointer)
    for block, r in zip(blocks, rest[1:]):
        limit = tuple(ub - x for x in r)
        candidates = [load + (s, ch) for s, prev in enumerate(loads)
                      for ch, vec in enumerate(block)
                      if all(map(le, (load := tuple(map(add, prev, vec))), limit))]
        kept = solvers._pareto_minimal(candidates)
        parents = [(t[-1], parents[t[-2]]) for t in kept]
        loads = [t[:-2] for t in kept]
    best = min(range(len(loads)), key=lambda i: max(loads[i]))
    picks = []
    node = parents[best]
    while node is not None:
        c, node = node
        picks.append(c)
    picks.reverse()
    return max(loads[best]), picks


# -- helpers -----------------------------------------------------------------------


def assert_same(n, vectors, edges=None):
    new = chain_minmax_exact(n, vectors, edges)
    old = old_chain_minmax_exact(n, vectors, edges)
    assert new == old  # objective, value, witness and choices
    assert type(new.value) is Fraction
    return new


def assert_same_scaled(n, vectors, scale, edges=None):
    """`scaled_chain_minmax` against the former DP on the same integer loads,
    whose value is over L = `scale`."""
    new = scaled_chain_minmax(n, vectors, scale, edges)
    old = old_chain_minmax_exact(n, vectors, edges)
    assert new == dataclasses.replace(old, value=old.value / scale)
    assert type(new.value) is Fraction
    return new


def random_vectors(rng, n):
    """Blocks of small rational vectors with zeros, repeats and one-choice blocks."""
    denominators = rng.choice([(1,), (1, 2), (1, 2, 3, 6), (4, 7)])
    zero_share = rng.choice([0.0, 0.3, 0.7])

    def cost():
        if rng.random() < zero_share:
            return F(0)
        return F(rng.randint(0, 6), rng.choice(denominators))

    blocks = []
    for _ in range(rng.randint(1, 9 if n <= 3 else 6 if n == 4 else 5)):
        block = [tuple(cost() for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:  # a repeated vector
            block.insert(rng.randrange(len(block) + 1), rng.choice(block))
        if rng.random() < 0.2:  # mixed int and Fraction entries
            block = [tuple(int(x) if x.denominator == 1 else x for x in vec) for vec in block]
        blocks.append(block)
    return blocks


def edge_ids(vectors):
    ids, next_id = [], 0
    for block in vectors:
        ids.append([])
        for _ in block:
            ids[-1].append((next_id, next_id + 1))
            next_id += 2
    return ids


# -- random inputs -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_random_inputs_match_the_former_dp(n):
    rng = random.Random(f"chain-dp/{n}")
    for _ in range(400 if n <= 4 else 200):
        vectors = random_vectors(rng, n)
        assert_same(n, vectors, edge_ids(vectors) if rng.random() < 0.5 else None)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_negative_costs_match_the_former_dp(n):
    # no cost is negative on a graph, but the DP does not refuse them, and
    # with negative loads a zero coordinate padded onto n <= 2 loads would
    # win the max and show in the value
    rng = random.Random(f"chain-dp-negative/{n}")
    for _ in range(100):
        vectors = [[tuple(F(rng.randint(-4, 2), rng.choice((1, 3))) for _ in range(n))
                    for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 6))]
        assert_same(n, vectors)


def greedy_value(n, vectors):
    """The max load of the pick sequence that takes, block by block, the first
    choice of smallest max_i(load_i + what agent i pays at least later)."""
    rest = [[0] * n]
    for block in reversed(vectors):
        rest.insert(0, [r + min(vec[i] for vec in block) for i, r in enumerate(rest[0])])
    load = [0] * n
    for block, later in zip(vectors, rest[1:]):
        load = min(([a + b for a, b in zip(load, vec)] for vec in block),
                   key=lambda new: max(a + r for a, r in zip(new, later)))
    return max(load)


def optimal_sequences(vectors):
    """The optimum and the number of pick sequences that reach it."""
    values = [max(map(sum, zip(*(block[c] for block, c in zip(vectors, picks)))))
              for picks in product(*(range(len(block)) for block in vectors))]
    best = min(values)
    return best, values.count(best)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inputs_whose_optimal_states_meet_the_upper_bound(n):
    # Inputs where the greedy sequence is optimal and others tie with it: every
    # optimal state's bound equals the upper bound at the end, and an ancestor
    # whose bound equals it early on must be kept too.
    rng = random.Random(f"chain-dp-tight/{n}")
    tight = 0
    while tight < 40:
        vectors = [[tuple(F(rng.randint(0, 2), rng.choice((1, 2))) for _ in range(n))
                    for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 5))]
        value, ties = optimal_sequences(vectors)
        if ties < 2 or greedy_value(n, vectors) != value:
            continue
        tight += 1
        report = assert_same(n, vectors, edge_ids(vectors))
        assert report.value == value


def integer_blocks(rng, n):
    """Blocks of n-agent integer costs 0-3, so loads and bounds tie, 1-5
    choices a block, 1-12 blocks, with zero-cost choices and blocks and
    single-choice blocks."""
    blocks = []
    for _ in range(rng.randint(1, 12)):
        shape = rng.random()
        if shape < 0.1:  # a zero-cost block
            block = [(0,) * n] * rng.randint(1, 3)
        else:
            choices = 1 if shape < 0.25 else rng.randint(1, 5)
            block = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(choices)]
            if rng.random() < 0.3:  # a zero-cost choice
                block.insert(rng.randrange(len(block) + 1), (0,) * n)
        blocks.append(block)
    return blocks


def recorded_fronts(monkeypatch, solve):
    """`solve()` and the candidate lists it passed `_pareto_minimal`."""
    seen = []
    pareto_minimal = solvers._pareto_minimal

    def recorded(candidates):
        seen.append(list(candidates))
        return pareto_minimal(candidates)

    monkeypatch.setattr(solvers, "_pareto_minimal", recorded)
    try:
        return solve(), seen
    finally:
        monkeypatch.setattr(solvers, "_pareto_minimal", pareto_minimal)


def test_two_agent_integer_inputs_match_the_former_dp():
    # the same value, choices and witness as the former DP on 2-agent
    # integer inputs, over L = 1 and L = 4
    rng = random.Random("chain-dp-two-agents")
    tight = 0
    for trial in range(1500):
        vectors = integer_blocks(rng, 2)
        scale = rng.choice((1, 4))
        new = assert_same_scaled(2, vectors, scale, edge_ids(vectors) if trial % 2 else None)
        tight += greedy_value(2, vectors) == new.value * scale
    # inputs where the greedy's max load is the optimum, so optimal states
    # sit on the bound, are common at these costs
    assert tight >= 1000


@pytest.mark.parametrize("n,trials", [(1, 300), (2, 1000), (3, 600), (4, 300)])
def test_integer_inputs_match_the_tuple_step(monkeypatch, n, trials):
    # one body for every n against the former tuple step: the same value
    # and picks, and the same candidates handed to the front helper, block
    # by block, which pins the greedy's tie-break (the first smallest bound)
    # and the order of the states
    rng = random.Random(f"chain-dp-tuple-step/{n}")
    for _ in range(trials):
        vectors = integer_blocks(rng, n)
        new, fronts = recorded_fronts(monkeypatch, lambda: solvers._picks(n, vectors))
        old, old_fronts = recorded_fronts(monkeypatch, lambda: tuple_step_picks(n, vectors))
        assert new == old
        assert fronts == old_fronts and len(fronts) == len(vectors)
        report = scaled_chain_minmax(n, vectors, 1)
        assert (report.value, list(report.choices)) == new


def test_ties_on_the_max_load_take_the_smallest_picks():
    # every route gives max load 1; the picks (0, 1) and (1, 0) tie on value
    vectors = [[(F(1), F(0)), (F(0), F(1))]] * 2
    report = assert_same(2, vectors)
    assert report.value == 1 and report.choices == (0, 1)
    # all-zero costs: every sequence ties, the all-zero picks win
    report = assert_same(3, [[(0, 0, 0)] * 3] * 4)
    assert report.value == 0 and report.choices == (0, 0, 0, 0)


def test_the_first_pick_sequence_keeps_a_shared_load():
    # (2, 0) is reached by picks (0, 1) and (1, 0); the first one keeps it
    vectors = [[(F(1), F(0)), (F(1), F(0))], [(F(5), F(5)), (F(1), F(0))]]
    report = assert_same(2, vectors)
    assert report.choices == (0, 1)


def test_dominated_and_equal_padded_coordinates():
    # loads that differ only in the second coordinate, for each n <= 3
    for n in (1, 2, 3):
        vectors = [[tuple(F(c + (i == n - 1)) for i in range(n)) for c in range(3)]
                   for _ in range(3)]
        assert_same(n, vectors)
    # a staircase point with the same b and a larger c is replaced
    assert_same(3, [[(0, 1, 5), (1, 1, 2), (2, 0, 9)], [(0, 0, 0), (3, 1, 0)]])


# -- every input the adversary gives the allocator ----------------------------


@pytest.fixture
def differential_allocator(monkeypatch):
    """Route the adversary's chain-exact allocator through `assert_same_scaled`."""
    calls = []

    def checked(n, vectors, scale, edges=None):
        calls.append(len(vectors))
        return assert_same_scaled(n, vectors, scale, edges)

    monkeypatch.setattr(adversary, "scaled_chain_minmax", checked)
    return calls


def run_chain_exact(agents, blocks, eps=None):
    spec = ChainSpec(agents, blocks, helper_eps=eps)
    _, indexing = build_adversary_instance(spec, MODE_PATH)
    return run_adversary(adversary.chain_exact_allocator(indexing), spec, MODE_PATH)


FORMER_OUTPUTS = Path(__file__).with_name("former_chain_dp_outputs.json")
COMMITTED_SIZES = range(1, 82)  # 2-agent runs whose former outputs are committed


def input_digest(n, vectors, edges):
    text = json.dumps([n, [[[str(x) for x in vec] for vec in block] for block in vectors],
                       edges])
    return hashlib.sha256(text.encode()).hexdigest()


def encode_output(report):
    witness = None if report.witness is None else sorted(report.witness.edge_ids)
    return [str(report.value), list(report.choices), witness]


def former_outputs_of_runs(agents, sizes):
    """The former DP's output on each input the adversary gives it, by digest,
    with the former DP as the adversary's allocator; values are over the
    instance's L."""
    outputs = {}

    def former(n, vectors, scale, edges=None):
        report = old_chain_minmax_exact(n, vectors, edges)
        outputs[input_digest(n, vectors, edges)] = encode_output(report)
        return report

    saved = adversary.scaled_chain_minmax
    adversary.scaled_chain_minmax = former
    try:
        for blocks in sizes:
            run_chain_exact(agents, blocks)
    finally:
        adversary.scaled_chain_minmax = saved
    return outputs


@pytest.fixture(scope="module")
def committed_outputs():
    return json.loads(FORMER_OUTPUTS.read_text())


@pytest.fixture
def committed_allocator(monkeypatch, committed_outputs):
    """Route the adversary's chain-exact allocator through a check against
    the former DP's committed outputs; returns the digests checked."""
    digests = []

    def checked(n, vectors, scale, edges=None):
        new = scaled_chain_minmax(n, vectors, scale, edges)
        digest = input_digest(n, vectors, edges)
        value, choices, witness = committed_outputs[digest]  # value over L
        assert new == OptimumReport(MIN_MAX, Fraction(value) / scale,
                                    None if witness is None else Solution(witness),
                                    tuple(choices))
        assert type(new.value) is Fraction
        digests.append(digest)
        return new

    monkeypatch.setattr(adversary, "scaled_chain_minmax", checked)
    return digests


def test_committed_former_outputs_rerun_live(committed_outputs):
    live = former_outputs_of_runs(2, range(1, 21))
    assert len(live) >= 2 * 20
    assert {digest: committed_outputs[digest] for digest in live} == live


@pytest.mark.parametrize("agents,sizes", [
    (2, COMMITTED_SIZES), (3, range(1, 13)), (4, range(1, 9)), (5, range(1, 6)),
])
def test_adversary_inputs_match_the_former_dp(request, agents, sizes):
    committed = agents == 2
    checked = request.getfixturevalue(
        "committed_allocator" if committed else "differential_allocator")
    for blocks in sizes:
        run_chain_exact(agents, blocks)
    assert len(checked) >= 2 * len(sizes)
    if committed:  # the adversary gave the DP the very inputs the former DP saw
        assert set(checked) == set(request.getfixturevalue("committed_outputs"))


@pytest.mark.parametrize("agents,blocks,eps", [
    (2, 7, F(1, 3)), (2, 20, F(2, 5)), (2, 33, F(1, 1000)), (3, 6, F(1, 7)),
    (3, 9, F(3, 10)),
])
def test_non_default_eps_matches_the_former_dp(differential_allocator, agents, blocks, eps):
    run_chain_exact(agents, blocks, eps)
    assert differential_allocator


def test_large_two_agent_run_is_fast():
    # the former DP scans its states pairwise at every block: minutes here
    start = time.process_time()
    report = run_chain_exact(2, 400)
    assert time.process_time() - start < 3.0
    assert report.outcome == "monotonicity-violation"
    assert report.violation.reverify()


def unbounded_candidates(n, vectors):
    """The candidates the DP would pass to `_pareto_minimal` with only the
    dominance prune: per block, the Pareto-minimal states times the choices."""
    loads, total = [(0,) * n], 0
    for block in vectors:
        candidates = [tuple(map(add, load, vec)) + (s, c)
                      for s, load in enumerate(loads) for c, vec in enumerate(block)]
        total += len(candidates)
        loads = [t[:-2] for t in solvers._pareto_minimal(candidates)]
    return total


@pytest.mark.parametrize("agents,blocks,unbounded", [
    # with only the dominance prune the DP passes 21,524 candidates at 4x16
    # and 11,400 at 2x80 over each run; `unbounded_candidates` recounts the
    # latter, the former takes seconds of pairwise scans to recount
    (4, 16, 21_524), (2, 80, 11_400), (5, 8, None),
])
def test_chain_exact_runs_past_three_agents_with_half_the_candidates(
        monkeypatch, tmp_path, agents, blocks, unbounded):
    seen = []
    pareto_minimal = solvers._pareto_minimal

    def counted(candidates):
        seen.append(len(candidates))
        return pareto_minimal(candidates)

    vectors_seen = []
    allocator = adversary.scaled_chain_minmax

    def recorded(n, vectors, scale, edges=None):
        vectors_seen.append((n, vectors))
        return allocator(n, vectors, scale, edges)

    monkeypatch.setattr(solvers, "_pareto_minimal", counted)
    monkeypatch.setattr(adversary, "scaled_chain_minmax", recorded)
    out = tmp_path / "report.json"
    assert cli.main(["adversary", "run", "--alg", "chain-exact", "--agents", str(agents),
                     "--blocks", str(blocks), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outcome"] == "monotonicity-violation"
    assert report["violation_reverified"] is True
    # every block of every allocation passes the front helper its candidates
    assert len(seen) == sum(len(v) for _, v in vectors_seen) > 0
    if unbounded is None:
        return
    if agents <= 3:
        monkeypatch.setattr(solvers, "_pareto_minimal", pareto_minimal)
        assert sum(unbounded_candidates(n, v) for n, v in vectors_seen) == unbounded
    assert sum(seen) < unbounded / 2


def test_float_costs_are_refused():
    with pytest.raises(StructureError, match="float"):
        chain_minmax_exact(2, [[(F(1), 0.5)]])


@pytest.mark.parametrize("entry", ["1/2", 0.5, True])
def test_costs_other_than_ints_and_fractions_are_refused(entry):
    with pytest.raises(StructureError, match=type(entry).__name__):
        chain_minmax_exact(2, [[(F(1), entry)]])


@pytest.mark.parametrize("n", [True, 2.0])
def test_an_agent_count_other_than_an_int_is_refused(n):
    with pytest.raises(StructureError, match=f"^n must be an int, got {n!r}$"):
        chain_minmax_exact(n, [[(F(1), 1)]])


if __name__ == "__main__":
    outputs = former_outputs_of_runs(2, COMMITTED_SIZES)
    FORMER_OUTPUTS.write_text("{\n" + ",\n".join(
        json.dumps(digest) + ": " + json.dumps(output, separators=(",", ":"))
        for digest, output in outputs.items()) + "\n}\n")
    sys.exit(0)
