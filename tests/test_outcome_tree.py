"""The memoized outcome tree: shared, fresh, reordered and uncached runs agree.

A trajectory's program in round k+1 depends only on the outcomes of rounds
1..k, so sharing an OutcomeTree between trajectories, running them in any
order or keeping no nodes at all must leave every trace byte unchanged. That
is what lets trials run concurrently (or in chunks) without changing output.
With a fixed data state the outcomes fix each node's state too, and a tree
built with that state caches each node's round; its traces must equal those
of a tree without one. The exact walk keeps its own entry on the nodes of
such a tree: its value at any round budget, and the traces sampled after it,
must equal those of a fresh tree.
"""
import json
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import loops, zoo
from qproc.cli import trace_to_dict
from qproc.loops import OutcomeTree, exact_success, exact_walk, run_loop, run_trials
from qproc.processor import assemble, decompose, select_branch
from qproc.qlinalg import random_state, random_unitary, su2_exp
from qproc.streams import derive_stream

TRIALS = 12
MAX_ROUNDS = 6


def _family(name: str, seed: int):
    """(proc, rule, target) of one family with a target drawn from the seed."""
    rng = derive_stream(seed, 0)
    if name == "u1":
        return zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(rng.uniform(-np.pi, np.pi))
    if name == "bz":
        z = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        n_program = int(rng.integers(2, 5))
        return zoo.cyclic_shift_processor(n_program), loops.bz_rule(), zoo.bz_operator(z)
    if name == "diagonal":
        dim = int(rng.integers(2, 5))
        entries = rng.uniform(0.3, 1.0, dim) * np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        return zoo.qudit_diagonal_processor(dim), loops.diagonal_rule(), np.diag(entries)
    if name == "qid2":
        return zoo.qid2(), loops.qid2_rule(), su2_exp(rng.uniform(-1.2, 1.2, 3))
    n = {"qidN2": 2, "qidN3": 3, "qidN4": 4}[name]
    return zoo.qidN(n), loops.qidN_rule(), random_unitary(n, rng)


FAMILIES = ("u1", "bz", "diagonal", "qid2", "qidN2", "qidN3")


def _trace_bytes(trace) -> tuple:
    posts = tuple(None if r.post_state is None else r.post_state.tobytes() for r in trace.rounds)
    return json.dumps(trace_to_dict(trace)), posts


def _run(proc, rule, target, seed, order, tree_for):
    """Traces of trials in `order`, each on the tree tree_for(t), by trial index."""
    out = {}
    for t in order:
        rng = derive_stream(seed, 1, t + 1)
        psi = random_state(proc.data_dim, rng)
        out[t] = _trace_bytes(run_loop(tree_for(t), psi, MAX_ROUNDS, rng))
    return out


@settings(max_examples=40)
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1))
def test_traces_do_not_depend_on_tree_state(family, seed):
    proc, rule, target = _family(family, seed)
    forward = range(TRIALS)
    shared = OutcomeTree(proc, target, rule)
    reference = _run(proc, rule, target, seed, forward, lambda t: shared)
    assert _run(proc, rule, target, seed, forward, lambda t: OutcomeTree(proc, target, rule)) == reference
    reversed_tree = OutcomeTree(proc, target, rule)
    assert _run(proc, rule, target, seed, reversed(forward), lambda t: reversed_tree) == reference
    with mock.patch.object(loops, "_RETAINED_BYTES", 0):
        uncached = OutcomeTree(proc, target, rule)
        assert _run(proc, rule, target, seed, forward, lambda t: uncached) == reference
        assert uncached.root.children == {}


@settings(max_examples=40)
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1))
def test_loop_rounds_draw_as_decompose_and_select_branch(family, seed):
    """Each lazily drawn round equals select_branch(decompose(...)) on the same stream, bit for bit."""
    proc, rule, target = _family(family, seed)
    basis = rule.basis_for(proc)
    psi = random_state(proc.data_dim, derive_stream(seed, 1))
    trace = run_loop(OutcomeTree(proc, target, rule), psi, MAX_ROUNDS, derive_stream(seed, 2))
    rng = derive_stream(seed, 2)
    state = psi
    for r in trace.rounds:
        branch = select_branch(decompose(proc, state, r.program, basis), rng)
        assert r.outcome == branch.label
        assert r.probability == branch.probability
        assert r.post_state.tobytes() == branch.post_state.tobytes()
        state = branch.post_state


def _counting(rule):
    calls = []

    def next_program(proc, target, residual):
        calls.append(1)
        return rule._next_program(proc, target, residual)

    return replace(rule, _next_program=next_program), calls


def test_shared_tree_builds_each_round_program_once():
    # u1 has one failure branch, so its tree is a chain of max_rounds nodes
    rule, calls = _counting(loops.u1_rule())
    proc, target = zoo.u1_cnot(), zoo.u1_operator(0.3)
    tree = OutcomeTree(proc, target, rule)
    psi = np.array([0.6, 0.8])
    traces = [run_loop(tree, psi, MAX_ROUNDS, derive_stream(5, t)) for t in range(200)]
    assert max(t.rounds_used for t in traces) == MAX_ROUNDS
    assert len(calls) == MAX_ROUNDS


def test_retained_node_arrays_stay_within_cap():
    proc, rule, target = _family("qidN3", 9)
    node_bytes = 9 * 3 * 3 * 16 + 3 * 3 * 16  # branch operators + residual
    cap = 4 * node_bytes
    with mock.patch.object(loops, "_RETAINED_BYTES", cap):
        tree = OutcomeTree(proc, target, rule)
        _run(proc, rule, target, 9, range(60), lambda t: tree)
    kept, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        kept += len(node.children)
        stack.extend(node.children.values())
        assert node.round is None  # without a state no round, probabilities included, is kept
    assert kept == 4
    assert tree._retained == cap


def _run_fixed(psi, seed, order, tree):
    """Traces of trials in `order` from the fixed state psi, by trial index."""
    return {t: _trace_bytes(run_loop(tree, psi, MAX_ROUNDS, derive_stream(seed, 1, t + 1))) for t in order}


def _probs_bytes(probs: list) -> int:
    """What a round's probability list holds: the list and its floats."""
    return sys.getsizeof(probs) + sum(map(sys.getsizeof, probs))


def _node_bytes(proc, with_state: bool) -> int:
    """Bytes one retained node counts: residual, branch operators and, with a state, its round."""
    n, d = proc.program_dim, proc.data_dim
    arrays = 16 * (d * d + n * d * d + (2 * n * d if with_state else 0))
    return arrays + (_probs_bytes([0.5] * n) if with_state else 0)


@settings(max_examples=40)
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1))
def test_tree_with_a_state_gives_the_traces_of_a_tree_without(family, seed):
    proc, rule, target = _family(family, seed)
    psi = random_state(proc.data_dim, derive_stream(seed, 3))
    forward = range(3 * TRIALS)
    shuffled = derive_stream(seed, 4).permutation(len(forward)).tolist()
    reference = _run_fixed(psi, seed, forward, OutcomeTree(proc, target, rule))
    for cap in (loops._RETAINED_BYTES, 0, 3 * _node_bytes(proc, True)):
        with mock.patch.object(loops, "_RETAINED_BYTES", cap):
            for order in (forward, shuffled):
                assert _run_fixed(psi, seed, order, OutcomeTree(proc, target, rule, psi)) == reference


def _retained_nodes(tree) -> list:
    kept, stack = [], [tree.root]
    while stack:
        children = list(stack.pop().children.values())
        kept += children
        stack += children
    return kept


def test_retained_bytes_with_a_state_stay_within_cap():
    proc, rule, target = _family("qidN3", 9)
    psi = random_state(proc.data_dim, derive_stream(9, 3))
    cap = 4 * _node_bytes(proc, True)
    with mock.patch.object(loops, "_RETAINED_BYTES", cap):
        tree = OutcomeTree(proc, target, rule, psi)
        _run_fixed(psi, 9, range(200), tree)
    kept = _retained_nodes(tree)
    held = sum(
        node.residual.nbytes
        + node.ops.nbytes
        + node.round.amps.nbytes
        + _probs_bytes(node.round.probs)
        + sum(r.post_state.nbytes for r in node.round.drawn.values())
        for node in kept
    )
    # the count reserves a post-state for every branch, drawn or not
    undrawn = sum(16 * proc.data_dim * (proc.program_dim - len(node.round.drawn)) for node in kept)
    assert len(kept) == 4
    assert held + undrawn == tree._retained == cap


def test_tree_with_a_state_shares_each_round():
    # u1 from a fixed state: every trajectory's first round is one of the
    # root's two stored LoopRounds, and the root stores one probability per branch.
    proc, rule, target = zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(0.3)
    psi = np.array([0.6, 0.8])
    tree = OutcomeTree(proc, target, rule, psi)
    firsts = [run_loop(tree, psi, MAX_ROUNDS, derive_stream(6, t)).rounds[0] for t in range(100)]
    assert len({id(r) for r in firsts}) == 2 == len({r.outcome for r in firsts})
    assert len(tree.root.round.probs) == 2
    assert not firsts[0].post_state.flags.writeable


def test_tree_with_a_state_shares_each_trace():
    # One LoopTrace per outcome history and status: u1 ends succeeded or
    # exhausted, and bz at z = 2 also uncorrectable once the corrected ratio
    # z^(2^k) leaves the range.
    psi = np.array([0.6, 0.8])
    statuses = set()
    for proc, rule, target, max_rounds in (
        (zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(0.3), 3),
        (zoo.cyclic_shift_processor(2), loops.bz_rule(), zoo.bz_operator(2.0), 60),
    ):
        tree = OutcomeTree(proc, target, rule, psi)
        traces = [run_loop(tree, psi, max_rounds, derive_stream(7, t)) for t in range(200)]
        ids = {}
        for trace in traces:
            ids.setdefault((trace.status, tuple(r.outcome for r in trace.rounds)), set()).add(id(trace))
        assert all(len(shared) == 1 for shared in ids.values())
        statuses |= {status for status, _ in ids}
    assert statuses == {"succeeded", "exhausted", "uncorrectable"}


def test_run_loop_rejects_a_psi_other_than_the_trees():
    proc, rule, target = _family("qid2", 4)
    psi = np.array([0.6, 0.8])
    tree = OutcomeTree(proc, target, rule, psi)
    run_loop(tree, psi.astype(complex), MAX_ROUNDS, derive_stream(1))  # the same state in another array
    for other in ([0.8, 0.6], [0.6, -0.8], [0.6j, 0.8j]):
        with pytest.raises(ValueError):
            run_loop(tree, np.array(other), MAX_ROUNDS, derive_stream(1))


def test_start_returns_the_trees_own_psi_without_checking_it_again():
    proc, rule, target = _family("qid2", 4)
    tree = OutcomeTree(proc, target, rule, np.array([0.6, 0.8]))
    with mock.patch.object(loops, "data_state", side_effect=AssertionError("checked again")):
        assert tree.start(tree.psi) is tree.psi
    assert tree.start(np.array([0.6, 0.8])) is tree.psi  # an equal copy is checked, then the tree's psi is used
    with pytest.raises(ValueError):
        tree.start(np.array([0.8, 0.6]))


# Collapsing (unitary) and non-collapsing (bz, diagonal off the unit circle) loops.
EXACT_FAMILIES = ("u1", "qid2", "qidN2", "qidN3", "qidN4", "bz", "diagonal")


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(EXACT_FAMILIES), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_exact_walk_on_a_shared_tree_equals_a_fresh_evaluation(family, seed, data):
    """Any round budgets (shuffled, repeated, descending) on one tree give fresh exact_success bit for bit."""
    proc, rule, target = _family(family, seed)
    psi = random_state(proc.data_dim, derive_stream(seed, 3))
    deepest = 4 if family == "diagonal" else 9  # a diagonal walk goes branch by branch
    depths = data.draw(st.lists(st.integers(1, deepest), min_size=1, max_size=8))
    fresh = {n: exact_success(proc, target, rule, n, psi=psi) for n in range(1, deepest + 1)}
    for cap in (loops._RETAINED_BYTES, 0, 3 * _node_bytes(proc, True)):
        with mock.patch.object(loops, "_RETAINED_BYTES", cap):
            tree = OutcomeTree(proc, target, rule, psi)
            for n in depths + sorted(depths, reverse=True):
                assert exact_walk(tree, n) == fresh[n]
            assert tree._retained <= cap


@pytest.mark.parametrize("family", ["qid2", "qidN3", "diagonal"])
def test_exact_walk_retains_only_the_collapsed_chain(family):
    proc, rule, target = _family(family, 8)
    psi = random_state(proc.data_dim, derive_stream(8, 3))
    tree = OutcomeTree(proc, target, rule, psi)
    exact_walk(tree, 4)
    kept = _retained_nodes(tree)
    if family == "diagonal":  # off the unit circle: branch by branch, nothing kept
        assert kept == [] and tree.root.exact.collapses is False
    else:  # the representative child of each collapsed node, one per round past the first
        assert len(kept) == 3 and all(len(node.children) <= 1 for node in kept)
    entries = [node.exact for node in [tree.root, *kept]]
    held = sum(e.amps.nbytes + e.probs.nbytes for e in entries)  # each kept node holds its exact entry
    assert tree._retained == len(kept) * _node_bytes(proc, True) + held


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1))
def test_traces_after_the_exact_walk_equal_those_of_a_fresh_tree(family, seed):
    proc, rule, target = _family(family, seed)
    psi = random_state(proc.data_dim, derive_stream(seed, 3))
    forward = range(3 * TRIALS)
    reference = _run_fixed(psi, seed, forward, OutcomeTree(proc, target, rule, psi))
    for cap in (loops._RETAINED_BYTES, 0, 3 * _node_bytes(proc, True)):
        with mock.patch.object(loops, "_RETAINED_BYTES", cap):
            tree = OutcomeTree(proc, target, rule, psi)
            for n in (4, 1, 2):
                exact_walk(tree, n)
            assert _run_fixed(psi, seed, forward, tree) == reference


def test_exact_walk_needs_a_tree_with_a_state():
    proc, rule, target = _family("qid2", 4)
    with pytest.raises(ValueError):
        exact_walk(OutcomeTree(proc, target, rule), 2)


# The checks of a loop's inputs run once, when its tree is built.


@pytest.mark.parametrize("rule", [loops.u1_rule(), loops.bz_rule()], ids=["u1", "bz"])
def test_a_diagonal_rule_rejects_a_non_diagonal_target_at_construction(rule):
    target = zoo.u1_operator(0.3) @ su2_exp([0.0, 1e-3, 0.0])
    with pytest.raises(ValueError, match="target must be diagonal"):
        OutcomeTree(zoo.u1_cnot(), target, rule)


def _haar_processor(seed: int):
    g = random_unitary(4, derive_stream(seed))
    return assemble(g.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2), label="haar")


@pytest.mark.parametrize("make", [zoo.qid2, lambda: _haar_processor(12)], ids=["qid2", "haar"])
@pytest.mark.parametrize("rule", [loops.u1_rule(), loops.bz_rule(), loops.diagonal_rule()], ids=["u1", "bz", "diagonal"])
def test_a_diagonal_rule_rejects_a_processor_with_non_diagonal_blocks_at_construction(make, rule):
    with pytest.raises(ValueError, match="processor blocks must be diagonal"):
        OutcomeTree(make(), np.eye(2), rule, np.array([0.6, 0.8]))


@pytest.mark.parametrize(
    "target", [np.diag([1.0, 2.0]), np.zeros((2, 2)), 1e200 * np.eye(2)], ids=["not-unitary", "zero", "overflows"]
)
def test_a_qid2_tree_rejects_a_non_unitary_target_at_its_root(target):
    tree = OutcomeTree(zoo.qid2(), target, loops.qid2_rule())
    with pytest.raises(ValueError):
        tree.root


@pytest.mark.parametrize("family", ["u1", "diagonal"])
def test_a_diagonal_rule_is_checked_once_per_tree(monkeypatch, family):
    if family == "u1":
        proc, rule, target = _family("u1", 3)
    else:  # on the unit circle, so the exact walk collapses and reaches depth 20
        proc, rule, target = zoo.qudit_diagonal_processor(3), loops.diagonal_rule(), np.diag(np.exp([0.4j, -1.1j, 2.0j]))
    calls = []
    check = loops._check_diagonal
    monkeypatch.setattr(loops, "_check_diagonal", lambda *args: calls.append(1) or check(*args))
    tree = OutcomeTree(proc, target, rule, random_state(proc.data_dim, derive_stream(3, 1)))
    exact_walk(tree, 20)
    rngs = [derive_stream(3, 2, j) for j in range(500)]
    traces = run_trials(tree, 20, 500, lambda j: rngs[j].random())
    assert max(t.rounds_used for t in traces) > 1
    assert len(calls) == 1
