"""Trajectories sampled together equal trajectories sampled one by one.

From a fixed data state, `sample` and a loop `sweep` walk each stream
chunk's trials as groups that share an outcome history (`loops.run_trials`),
each trial drawing its uniforms from `streams.uniform_draws`. Trial t's trace
must be, byte for byte, post-states and status included, that of `run_loop`
alone on derive_stream(seed, e, t + 1): whatever the outcome tree retains
and however the trials fall into chunks.
"""
import itertools
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import cli, loops, streams, zoo
from qproc.cli import ExperimentConfig, run_sample, run_sweep, trace_to_dict
from qproc.loops import LoopTrace, OutcomeTree, SingularProgram, run_loop, run_trials
from qproc.qlinalg import random_unitary
from qproc.streams import derive_stream, trial_indices, uniform_draws


def _trace_bytes(trace) -> tuple:
    posts = tuple(None if r.post_state is None else r.post_state.tobytes() for r in trace.rounds)
    return json.dumps(trace_to_dict(trace)), posts, trace.status


def _complex(draw) -> list[float]:
    modulus = draw(st.floats(0.2, 5.0))
    phase = draw(st.floats(-np.pi, np.pi))
    return [modulus * np.cos(phase), modulus * np.sin(phase)]


@st.composite
def _sample_params(draw, family):
    """Params of one fixed-state `sample` family, with a drawn data state."""
    if family == "u1":
        p, dim = {"alpha": draw(st.floats(-3.0, 3.0))}, 2
    elif family == "bz":  # |z| up to 5 leaves the ratio range within 8 rounds: uncorrectable
        p, dim = {"z": _complex(draw), "n_program": draw(st.integers(2, 4))}, 2
    elif family == "diagonal":  # off the unit circle
        dim = draw(st.integers(2, 4))
        p = {"entries": [_complex(draw) for _ in range(dim)]}
    elif family == "qid2":
        p, dim = {"mu": draw(st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=3))}, 2
    elif draw(st.booleans()):  # a Haar target from the experiment's auxiliary stream
        dim = draw(st.integers(2, 3))
        p = {"n_dim": dim}
    else:  # a target that is not proportional to a unitary: the exact walk enumerates the tree
        dim = draw(st.integers(2, 3))
        rng = derive_stream(draw(st.integers(0, 2**32 - 1)))
        target = random_unitary(dim, rng) @ np.diag(rng.uniform(0.3, 1.0, dim))
        p = {"n_dim": dim, "target": np.stack((target.real, target.imag), -1).tolist()}
    p["psi"] = [[x, y] for x, y in draw(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(-1.0, 1.0)), min_size=dim, max_size=dim))]
    return p


def _rounds(params: dict, max_rounds: int) -> int:
    """max_rounds, cut where the exact walk of an enumerated qidN tree (N^2 - 1 failure branches a node) would pass
    a few thousand nodes: 4 rounds of qidN(3), 7 of qidN(2)."""
    if "target" not in params:
        return max_rounds
    return min(max_rounds, 4 if params["n_dim"] == 3 else 7)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["u1", "bz", "diagonal", "qid2", "qidn"]),
    data=st.data(),
    max_rounds=st.integers(1, 8),
    trials=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 3),
    cap=st.sampled_from(["default", 0, 3]),
    chunk=st.sampled_from([streams.CHUNK, 1, 7, 64]),
)
def test_sample_equals_run_loop_per_trial(family, data, max_rounds, trials, seed, index, cap, chunk):
    params = data.draw(_sample_params(family))
    max_rounds = _rounds(params, max_rounds)
    cfg = ExperimentConfig(family, params=params, max_rounds=max_rounds, trials=trials, seed=seed, experiment_index=index)
    tree, _ = cli._loop_setup(cfg)
    if cap == "default":
        cap = loops._RETAINED_BYTES
    elif cap:  # a few nodes
        cap *= tree.root.residual.nbytes + tree.root.ops.nbytes + tree._round_bytes
    with mock.patch.object(loops, "_RETAINED_BYTES", cap), mock.patch.object(streams, "CHUNK", chunk):
        traces = run_sample(cfg)["traces"]
    reference = OutcomeTree(tree.proc, tree.target, tree.rule)
    assert len(traces) == trials
    for t, trace in enumerate(traces):
        alone = run_loop(reference, tree.psi, max_rounds, derive_stream(seed, index, t + 1))
        assert _trace_bytes(trace) == _trace_bytes(alone)


def _raising(rule):
    """The rule that finds no program for any residual."""

    def next_program(proc, target, residuals):
        return [SingularProgram("no program")] * len(residuals)

    return replace(rule, _next_program=next_program)


def test_an_uncorrectable_root_ends_every_trial_at_once():
    proc, rule, target, psi = zoo.u1_cnot(), _raising(loops.u1_rule()), zoo.u1_operator(0.3), np.array([0.6, 0.8])
    tree = OutcomeTree(proc, target, rule, psi)
    want = _trace_bytes(run_loop(OutcomeTree(proc, target, rule), psi, 4, derive_stream(1)))
    assert want[2] == "uncorrectable" and want[1] == ()
    for n, draw in uniform_draws((3, 0), trial_indices(5)):
        traces = run_trials(tree, 4, n, draw)
        assert [_trace_bytes(t) for t in traces] == [want] * 5
        assert traces[0] == LoopTrace(rounds=(), succeeded=False, status="uncorrectable")


def _counting(rule):
    """The rule, and a list that gets one entry per residual it encodes."""
    calls = []

    def next_program(proc, target, residuals):
        calls.extend([1] * len(residuals))
        return rule._next_program(proc, target, residuals)

    return replace(rule, _next_program=next_program), calls


@pytest.mark.parametrize("cap", [0, None])
def test_each_node_round_and_trace_is_made_once_per_call(cap):
    """Whatever the tree retains, one call builds each reached node once and shares its objects."""
    rule, calls = _counting(loops.qidN_rule())
    proc = zoo.qidN(3)
    target = np.diag(np.exp(1j * np.array([0.3, -1.1, 2.0])))
    with mock.patch.object(loops, "_RETAINED_BYTES", loops._RETAINED_BYTES if cap is None else cap):
        tree = OutcomeTree(proc, target, rule, np.ones(3) / np.sqrt(3))
        tree.root  # noqa: B018 - built before counting
        calls.clear()
        ((n, draw),) = uniform_draws((11, 0), trial_indices(300))
        traces = run_trials(tree, 3, n, draw)
    histories = {(t.status, tuple(r.outcome for r in t.rounds)) for t in traces}
    reached = {outcomes[:k] for _, outcomes in histories for k in range(1, len(outcomes))}
    assert len(calls) == len(reached)  # children only: the root was built above
    assert len({id(t) for t in traces}) == len(histories)
    rounds = {id(r) for t in traces for r in t.rounds}
    assert len(rounds) == len({outcomes[:k] for _, outcomes in histories for k in range(1, len(outcomes) + 1)})
    assert len({id(r.program) for t in traces for r in t.rounds}) == len(reached) + 1


@pytest.mark.parametrize(
    "experiment, params, grid",
    [
        ("qid2", {}, {"mu": [[0.2, -0.5, 0.9]], "n": [1, 2, 5]}),
        ("u1", {"psi": [0.6, 0.8]}, {"n": [3, 1], "alpha": [0.3, 1.1]}),
        ("qidn", {}, {"n_dim": [2, 3], "k": [1, 4]}),
        ("diagonal", {"entries": [0.5, [1.1, 0.3], 0.9]}, {"n": [2, 4], "psi": [[0.6, 0, 0.8]]}),
    ],
)
def test_loop_sweep_empirical_equals_run_loop_per_trial(experiment, params, grid):
    trials, seed = 57, 19
    with mock.patch.object(streams, "CHUNK", 16):  # several chunks per point
        rows = run_sweep(ExperimentConfig(experiment, params=params, grid=grid, trials=trials, seed=seed))
    family = cli._FAMILIES[experiment]
    for index, (row, values) in enumerate(zip(rows, itertools.product(*grid.values()), strict=True)):
        merged = {**family.sweep, **params, **dict(zip(grid, values))}
        trees: dict = {}
        cli._sweep_point(experiment, merged, (seed, index, 0), trees)
        (tree,) = trees.values()
        reference = OutcomeTree(tree.proc, tree.target, tree.rule)
        rounds = merged[family.rounds]
        hits = sum(run_loop(reference, tree.psi, rounds, derive_stream(seed, index, t + 1)).succeeded for t in range(trials))
        assert row.empirical == hits / trials


def test_trials_sampled_together_need_a_tree_with_a_state():
    tree = OutcomeTree(zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule())
    ((n, draw),) = uniform_draws((1,), range(3))
    with pytest.raises(ValueError):
        run_trials(tree, 2, n, draw)
    with pytest.raises(ValueError):
        run_trials(OutcomeTree(zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule(), np.array([0.6, 0.8])), 0, n, draw)


# Batch budgets: every batch of one, the default, and one that takes every pending group at once.
_BATCHES = (0, loops._BATCH_BYTES, 10**18)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["u1", "bz", "bz_haar", "diagonal", "qid2", "qidn"]),
    data=st.data(),
    max_rounds=st.integers(1, 8),
    trials=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_size_moves_no_byte(family, data, max_rounds, trials, seed):
    """Traces and exact values are byte-identical whether the walks build nodes one at a time or in batches of any size,
    with every node kept or none."""
    if family == "bz_haar":  # a Haar state per trial: one round, run_loop on a tree without a state
        params, max_rounds = {"z": _complex(data.draw), "n_program": data.draw(st.integers(2, 4))}, 1
    else:
        params = data.draw(_sample_params(family))
        max_rounds = _rounds(params, max_rounds)
    cfg = ExperimentConfig(family, params=params, max_rounds=max_rounds, trials=trials, seed=seed)
    seen = set()
    for retained in (0, loops._RETAINED_BYTES):
        for batch in _BATCHES:
            with mock.patch.object(loops, "_RETAINED_BYTES", retained), mock.patch.object(loops, "_BATCH_BYTES", batch):
                payload = run_sample(cfg)
                tree, _ = cli._loop_setup(cfg)
                exact = loops.exact_walk(tree, max_rounds) if tree.psi is not None else None
            seen.add((tuple(_trace_bytes(t) for t in payload["traces"]), json.dumps(payload["summary"]), exact))
    assert len(seen) == 1


def _peak_bytes(tree, trials: int) -> int:
    """tracemalloc's peak over one run_trials call of `trials` trials on the tree."""
    ((n, draw),) = uniform_draws((5, 0), trial_indices(trials))
    tracemalloc.start()
    try:
        run_trials(tree, 3, n, draw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batches_keep_peak_memory_near_that_of_one_node_at_a_time():
    """A 200-trial qidN(8) run peaks within 1 MiB of the same run built one node at a time (0 batch bytes).

    A qidN(8) node holds 83 KiB with its round, so the default batch takes three of them; what its
    stacks add to the peak is a few hundred KiB."""
    proc, rule = zoo.qidN(8), loops.qidN_rule()
    target = random_unitary(8, derive_stream(21))
    psi = np.ones(8) / np.sqrt(8)
    peaks = {}
    for batch in (0, loops._BATCH_BYTES):
        with mock.patch.object(loops, "_BATCH_BYTES", batch):
            peaks[batch] = _peak_bytes(OutcomeTree(proc, target, rule, psi), 200)
    assert peaks[loops._BATCH_BYTES] <= peaks[0] + 1024 * 1024, peaks


def test_rounds_of_one_batch_read_its_stack_of_branch_operators():
    """The rounds of a batch's nodes, in order, read the batch's own stack of branch operators, where nodes that own
    copies of their operators need a stacked copy (three qidN(8) nodes: 192 KiB); the bits are the same."""
    proc, rule = zoo.qidN(8), loops.qidN_rule()
    target = random_unitary(8, derive_stream(21))
    psi = np.ones(8) / np.sqrt(8)
    peaks, rounds = [], []
    for own in (False, True):
        tree = OutcomeTree(proc, target, rule, psi)
        nodes = tree.children([(tree.root, j) for j in (1, 2, 3)], retain=False)
        for node in nodes if own else ():
            node.own()
        tracemalloc.start()
        try:
            rounds.append(tree.rounds_at(nodes, [psi] * 3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stack = 3 * nodes[0].ops.nbytes
    assert peaks[0] <= peaks[1] - stack * 3 // 4, (peaks, stack)
    for a, b in zip(*rounds):
        assert a.amps.tobytes() == b.amps.tobytes() and a.probs == b.probs
