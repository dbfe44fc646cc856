"""The `sample` trace writer: its joined pieces are json.dumps of the payload with trace_to_dict traces, + "\\n"."""
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import loops
from qproc.cli import SAMPLE_EXPERIMENTS, ExperimentConfig, _float_grid, run_sample, sample_json, trace_to_dict
from qproc.loops import LoopRound, LoopTrace
from qproc.processor import ProgramState


def _oracle(payload: dict) -> str:
    return json.dumps({**payload, "traces": [trace_to_dict(t) for t in payload["traces"]]}, indent=2) + "\n"


def _written(payload: dict) -> str:
    return "".join(sample_json(payload))


@settings(max_examples=40)
@given(
    experiment=st.sampled_from(SAMPLE_EXPERIMENTS),
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 20),
    max_rounds=st.integers(1, 6),
)
def test_writer_matches_json_dumps(experiment, seed, trials, max_rounds):
    if experiment == "bz_haar":
        max_rounds = 1  # bz_haar is single-shot
    cfg = ExperimentConfig(experiment=experiment, seed=seed, trials=trials, max_rounds=max_rounds)
    payload = run_sample(cfg)
    assert _written(payload) == _oracle(payload)


@settings(max_examples=12, deadline=None)
@given(
    n_dim=st.integers(4, 8),
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 6),
    max_rounds=st.integers(1, 3),
)
def test_writer_matches_json_dumps_on_wide_qidn(n_dim, seed, trials, max_rounds):
    # Each weyl program carries an n_dim x n_dim block of [re, im] pairs.
    cfg = ExperimentConfig(experiment="qidn", params={"n_dim": n_dim}, seed=seed, trials=trials, max_rounds=max_rounds)
    payload = run_sample(cfg)
    assert _written(payload) == _oracle(payload)


def _program(params, encoding="raw"):
    return ProgramState(ket=np.array([1.0, 0.0]), encoding=encoding, params=params)


def _round(program, outcome="0", prob=0.5):
    if not isinstance(program, ProgramState):
        program = _program(program)
    return LoopRound(program=program, outcome=outcome, probability=prob)


def _trace(rounds, status="succeeded"):
    return LoopTrace(rounds=tuple(rounds), succeeded=status == "succeeded", status=status)


def _params_payload(params):
    """One payload that carries `params` as a program's params and, as given, as the config's.

    The program's params reach the writer through `_jsonify` (numpy scalars
    become floats, tuples lists); the config's reach it raw.
    """
    return {"config": {**CONFIG, "params": params}, "traces": [_trace([_round(params)])], "summary": SUMMARY}


CONFIG = {"experiment": "u1", "params": {"alpha": 0.3}, "max_rounds": 2, "trials": 1, "seed": 0, "experiment_index": 0}
SUMMARY = {"trials": 1, "successes": 1, "empirical": 1.0, "exact": 0.75, "three_sigma": 1.299038105676658}
SHARED = _program({"alpha": 0.3}, "u1")
SHARED_ROUND = _round(SHARED, outcome="1", prob=0.25)
SHARED_TRACE = _trace([SHARED_ROUND, _round(SHARED)])

COMPLEX_ARRAYS = {
    "d": np.array([[1 + 2j, -0.0 - 0.0j], [0.5j, 2e-300 - 1j]]),
    "e": np.array([1 + 1j, complex("nan+1j")]),
    "f": np.zeros((0, 2), dtype=complex),
    "g": np.array(0.25 - 0.5j),
    "h": np.arange(8).reshape(2, 2, 2) * (1 - 1j),
    "i": {"j": np.array([1e308 + 1e308j, 1e308 + 0j])},
    "k": np.array([[0.5, -0.0]]),
    "m": np.array([[1 + 1j], [2 + 2j]]).T,
    # not C-contiguous complex128: each is cast before its pairs are read
    "n": (np.arange(12).reshape(3, 4) * (0.5 - 1j))[:, ::2],
    "o": np.array([[0.1 + 0.2j, -0.0j]], dtype=np.complex64),
    "p": np.array([1.5 - 2j, 3e-300 + 0j], dtype=">c16"),
    "q": np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]], order="F"),
}

HAND_BUILT = {
    "zero-rounds": {"config": CONFIG, "traces": [_trace([], "uncorrectable")], "summary": SUMMARY},
    "no-traces": {"config": CONFIG, "traces": [], "summary": SUMMARY},
    "non-ascii": {
        "config": {**CONFIG, "params": {"label": "ψ→φ größe"}},
        "traces": [_trace([_round(_program({"note": "é \"\\", "ψ": "→"}, "räw"), outcome="ϕ")], "ünknown")],
        "summary": SUMMARY,
    },
    "non-finite": {
        "config": {**CONFIG, "params": {"alpha": float("inf"), "z": [float("-inf"), float("nan")]}},
        "traces": [_trace([_round(SHARED, prob=float("nan")), _round(SHARED, prob=float("inf"))], "exhausted")],
        "summary": {**SUMMARY, "three_sigma": float("-inf")},
    },
    "nested-params": {
        "config": CONFIG,
        "traces": [
            _trace([_round(_program({"d": [[[1.0, -0.0], [0.5, 2e-300]], []], "empty": {}, "n_dim": 2}, "weyl"))]),
            _trace([_round(SHARED), _round(SHARED, outcome="1", prob=1e-13)], "exhausted"),
        ],
        "summary": SUMMARY,
    },
    "ragged-and-empty-lists": _params_payload(
        {"d": [[1.0, 2.0], [3.0]], "e": [], "f": [[]], "g": [[1.0], []], "h": [[[0.5, 0.5]], [[0.5]]]}
    ),
    "ints-and-bools-in-lists": _params_payload(
        {"m": [1.0, 2, 3.0], "b": [[True, 1.0], [0.5, False]], "i": [[1, 2], [3, 4]], "n": [None, 1.0]}
    ),
    "negative-zero": _params_payload({"d": [[-0.0, 0.0], [-0.0, -0.0]], "s": -0.0, "v": [-0.0]}),
    "non-finite-nested": _params_payload(
        {"d": [[1.0, float("nan")], [2.0, 3.0]], "e": [[[float("inf"), 0.0]]], "f": [1.0, float("-inf")]}
    ),
    "overflowing-sum": _params_payload({"d": [[1.7e308, 1.7e308], [-0.5, 0.5]]}),
    "numpy-float-elements": _params_payload(
        {"d": [[np.float64(0.5), 1.0], [2.0, 3.0]], "e": [np.float64(1.0)], "f": [0.25, np.float64(-0.0)]}
    ),
    "tuples": _params_payload({"d": ((1.0, 2.0), (3.0, 4.0)), "e": [(1.0, 2.0), (3.0, 4.0)], "f": (0.5,)}),
    "non-string-keys": _params_payload({"encoding": "raw", "d": {1: [1.0, 2.0], 2.5: [[0.5]], True: "x", None: -0.0}}),
    "strings-and-dicts-in-lists": _params_payload(
        {"d": [["a", "b"], ["c", "d"]], "e": [{"x": 1.0}], "f": {"g": {}}}
    ),
    "same-shape-at-two-depths": {
        # (shape, pad) keys the template: [x, y] sits at three depths, (2, 2, 2) at one.
        "config": {
            **CONFIG,
            "params": {"psi": [0.6, 0.8], "target": [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]]},
        },
        "traces": [_trace([_round({"v": [0.1, 0.2], "w": {"v": [0.3, 0.4]}})])],
        "summary": SUMMARY,
    },
    # Only a program's params may hold arrays: a config reaches the writer as plain JSON.
    "complex-arrays": {"config": CONFIG, "traces": [_trace([_round(COMPLEX_ARRAYS)])], "summary": SUMMARY},
    "numpy-scalars": {
        "config": {**CONFIG, "params": {"alpha": np.float64(0.3)}},
        "traces": [_trace([_round(SHARED, prob=np.float64(0.25))])],
        "summary": {**SUMMARY, "exact": np.float64(0.75)},
    },
    "shared-objects": {
        # One trace object twice, its rounds also in a trace of another status.
        "config": CONFIG,
        "traces": [SHARED_TRACE, _trace([SHARED_ROUND], "exhausted"), SHARED_TRACE],
        "summary": SUMMARY,
    },
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_writer_matches_json_dumps_on_edge_payloads(case):
    payload = HAND_BUILT[case]
    assert _written(payload) == _oracle(payload)


def test_writer_yields_the_head_one_piece_per_trace_and_the_tail():
    payload = HAND_BUILT["shared-objects"]
    pieces = list(sample_json(payload))
    assert len(pieces) == len(payload["traces"]) + 2
    # The first and last occurrence of the shared trace are the same text.
    assert pieces[1] == pieces[3][1:]


@pytest.mark.parametrize(
    "value",
    [
        [], [[]], [[1.0], []], [[1.0, 2.0], [3.0]], [1.0, 2], [True, 1.0], [1.0, None], [1.0, float("nan")],
        [[float("inf")]], [1e308, 1e308], [np.float64(1.0)], [(1.0, 2.0)], [[1.0], (2.0,)], ["a"], [{"x": 1.0}],
    ],
    ids=repr,
)
def test_only_rectangular_finite_float_lists_take_a_template(value):
    assert _float_grid(value) is None


def test_float_grid_shape_and_elements():
    assert _float_grid([0.5, -0.0]) == ((2,), [0.5, -0.0])
    assert _float_grid([[[1.0, 2.0]], [[3.0, 4.0]]]) == ((2, 1, 2), [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("experiment", ["u1", "qid2", "qidn"])
def test_params_memo_survives_rebuilt_programs(experiment):
    # With no node retained, every round past the first runs a program built
    # for its trajectory alone. The writer keys params text on the program's
    # id, so the text must not change when thousands of programs come and go.
    cfg = ExperimentConfig(experiment=experiment, seed=4, trials=200, max_rounds=5)
    reference = _written(run_sample(cfg))
    with mock.patch.object(loops, "_RETAINED_BYTES", 0):
        assert _written(run_sample(cfg)) == reference
