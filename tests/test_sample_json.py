"""The `sample` trace writer: its joined pieces are json.dumps of the payload with trace_to_dict traces, + "\\n"."""
import collections
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qproc import cli, loops
from qproc.cli import SAMPLE_EXPERIMENTS, ExperimentConfig, _layout, _NoTemplate, run_sample, sample_json, trace_to_dict
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
    "percent-signs": {
        # A key is part of a template, so its "%" is escaped; a string value is a %-argument and is not.
        "config": {**CONFIG, "params": {"%": "%s", "%(x)s": [0.5, "%(y)s"], "a%%b": {"%d": 1.0}}},
        "traces": [_trace([_round({"%(x)s": "%s", "%": (0.25, "%r"), "k%s": {"%%": 2}}, outcome="%s")], "%(status)s")],
        "summary": SUMMARY,
    },
    "numpy-float64-beside-floats": {
        "config": {**CONFIG, "params": {"alpha": 0.3, "beta": np.float64(0.7), "z": [0.5, np.float64(-0.0)]}},
        "traces": [_trace([_round({"mu": (0.2, np.float64(-0.5), 0.9)}), _round({"mu": (0.2, -0.5, 0.9)})])],
        "summary": SUMMARY,
    },
    "bools-and-ints-in-float-tuples": _params_payload(
        {"mu": (0.5, True, 2, -0.0), "d": ([1.0, False], (3, 0.25)), "n": [0, 1.5, None]}
    ),
    "one-layout-at-two-pads": {
        # The config, the summary and the program's params share one layout, written at 2 and at 10 spaces.
        "config": {"encoding": "raw", "a": [1.0, 2.0]},
        "traces": [_trace([_round(_program({"a": [3.0, 4.0]}), outcome="1")])],
        "summary": {"encoding": "raw", "a": [5.0, 6.0]},
    },
    "long-u1-trace": {
        # Past any chunk: about 300 KB in one trace of 2000 rounds, over 40 programs.
        "config": CONFIG,
        "traces": [
            _trace([_round(_program({"alpha": 0.3 * (k % 40)}, "u1"), outcome=str(k % 2), prob=1 / (k + 2)) for k in range(2000)], "exhausted")
        ],
        "summary": SUMMARY,
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


def _trace_chars(trace) -> int:
    """Characters of one trace in the file: its ",\n    " lead and json.dumps text, four spaces in."""
    return 6 + len(json.dumps(trace_to_dict(trace), indent=2).replace("\n", "\n    "))


@pytest.mark.parametrize("chunk", [1, 700, cli.TEXT_CHUNK])
def test_writer_yields_the_head_chunks_of_whole_traces_and_the_tail(chunk):
    traces = run_sample(ExperimentConfig(experiment="qidn", seed=2, trials=300, max_rounds=5))["traces"]
    payload = {"config": CONFIG, "traces": traces + [SHARED_TRACE] * 50 + list(HAND_BUILT["long-u1-trace"]["traces"]), "summary": SUMMARY}
    with mock.patch.object(cli, "TEXT_CHUNK", chunk):
        pieces = list(sample_json(payload))
    assert pieces[0] == '{\n  "config": ' + json.dumps(CONFIG, indent=2).replace("\n", "\n  ") + ',\n  "traces": ['
    assert pieces[-1] == '\n  ],\n  "summary": ' + json.dumps(SUMMARY, indent=2).replace("\n", "\n  ") + "\n}\n"
    chunks, position = pieces[1:-1], 0
    # Each chunk ends with a whole trace; it is shorter than the bound without that trace, and only the last is
    # shorter than the bound with it.
    for k, text in enumerate(chunks):
        ends = []
        while sum(ends) < len(text):
            ends.append(_trace_chars(payload["traces"][position]) - (position == 0))
            position += 1
        assert sum(ends) == len(text)
        assert len(text) - ends[-1] < chunk
        assert len(text) >= chunk or k == len(chunks) - 1
    assert position == len(payload["traces"])
    if chunk == 1:
        assert len(chunks) == len(payload["traces"])
    assert "".join(pieces) == _oracle(payload)


@pytest.mark.parametrize(
    "value, layout, args",
    [
        ([], None, None),
        ([[]], None, None),
        ([[1.0], []], None, None),
        ([1.0, float("nan")], None, None),
        ([[float("inf")]], None, None),
        ([np.float64(1.0)], None, None),
        ({}, None, None),
        ([[1.0, 2.0], [3.0]], ("list", (("list", ("%r", "%r")), ("list", ("%r",)))), [1.0, 2.0, 3.0]),
        ([1.0, 2], ("list", ("%r", "%d")), [1.0, 2]),
        ([True, 1.0], ("list", ("true", "%r")), [1.0]),
        ([1.0, None], ("list", ("%r", "null")), [1.0]),
        # Floats are checked one by one; only a grid's finiteness is read from its sum.
        ([1e308, 1e308], ("list", ("%r", "%r")), [1e308, 1e308]),
        ([(1.0, 2.0)], ("list", (("list", ("%r", "%r")),)), [1.0, 2.0]),
        ([[1.0], (2.0,)], ("list", (("list", ("%r",)), ("list", ("%r",)))), [1.0, 2.0]),
        (["a"], ("list", ("%s",)), ['"a"']),
        ([{"x": 1.0}], ("list", (("dict", ("x",), ("%r",)),)), [1.0]),
    ],
    ids=repr,
)
def test_layout_takes_a_template_or_falls_back(value, layout, args):
    """Each value either has a layout and these scalars, or raises _NoTemplate (layout None): json.dumps writes it."""
    got: list = []
    if layout is None:
        with pytest.raises(_NoTemplate):
            _layout(value, got)
    else:
        assert _layout(value, got) == layout
        assert got == args


def test_layout_of_complex_values_and_keys():
    args: list = []
    assert _layout(0.5 - 0.0j, args) == ("list", ("%r", "%r"))
    assert _layout(np.array([[1 + 2j, 3 - 4j, 5j]]), args) == ("grid", (1, 3, 2))
    assert args == [0.5, -0.0, 1.0, 2.0, 3.0, -4.0, 0.0, 5.0]
    with pytest.raises(_NoTemplate):  # finite pairs whose sum overflows only cost the fallback
        _layout(np.array([1e308 + 1e308j, 1e308 + 0j]), [])
    with pytest.raises(_NoTemplate):
        _layout(np.zeros((0, 2), dtype=complex), [])
    # A non-str key has a layout but no template: json.dumps writes 1 as "1" and True as "true".
    layout = _layout({1: 2.0}, [])
    with pytest.raises(_NoTemplate):
        cli._template(layout, "")
    assert cli._template(_layout({"%(x)s": [0.5]}, []), "  ") == '{\n    "%%(x)s": [\n      %r\n    ]\n  }'


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(SAMPLE_EXPERIMENTS + ("qidn8",)),
    max_rounds=st.integers(1, 8),
    trials=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="qidn8", max_rounds=3, trials=40, seed=5)
@example(family="qid2", max_rounds=8, trials=300, seed=5)
def test_chunk_size_moves_no_byte(family, max_rounds, trials, seed):
    """The written text is the same with a chunk per trace, the default chunk and one chunk for every trace."""
    params = {"n_dim": 8} if family == "qidn8" else {}
    if family == "qidn8":
        family, max_rounds, trials = "qidn", min(max_rounds, 3), min(trials, 40)
    if family == "bz_haar":
        max_rounds = 1
    payload = run_sample(ExperimentConfig(family, params=params, max_rounds=max_rounds, trials=trials, seed=seed))
    reference = _written(payload)
    for chunk in (1, 10**9):
        with mock.patch.object(cli, "TEXT_CHUNK", chunk):
            assert _written(payload) == reference


def _peak_while_written(payload: dict) -> int:
    """Traced peak, in bytes, of iterating sample_json over the payload without holding its pieces."""
    tracemalloc.start()
    try:
        collections.deque(sample_json(payload), maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_writer_memory_is_bounded_by_the_chunk_not_the_trace_count():
    """10^4 traces take a few chunks of memory, plus, when every trace is distinct, the memo of each round's text.

    A chunk of `TEXT_CHUNK` ASCII characters is as many bytes; while one is
    joined, the previous one is still referenced, and the list of its
    pieces holds a pointer per piece. So a bound of 4 chunks covers the
    writer with no text memo (it reads 80 KB). The distinct traces add, for
    each round, its program's params text and its outcome/prob tail: their
    length plus 300 bytes for the two str headers, the two ids that key them
    and their dict slots (3.8 MB against a bound of 4.5 MB, CPython 3.11);
    the whole text held once more would pass the bound.
    """
    shared = _trace([_round(SHARED), _round(SHARED, outcome="1", prob=0.125), SHARED_ROUND], "exhausted")
    repeated = {"config": CONFIG, "traces": [shared] * 10**4, "summary": SUMMARY}
    assert len(_written(repeated)) > 50 * cli.TEXT_CHUNK
    assert _peak_while_written(repeated) < 4 * cli.TEXT_CHUNK
    rounds = [_round(_program({"alpha": 0.1 + k * 1e-5}, "u1"), prob=1.0 / (k + 3)) for k in range(10**4)]
    distinct = {"config": CONFIG, "traces": [_trace([r]) for r in rounds], "summary": SUMMARY}
    memo = sum(len(json.dumps(trace_to_dict(t)["rounds"][0], indent=2)) + 300 for t in distinct["traces"])
    assert _peak_while_written(distinct) < 4 * cli.TEXT_CHUNK + memo


@pytest.mark.parametrize("experiment", ["u1", "qid2", "qidn"])
def test_params_memo_survives_rebuilt_programs(experiment):
    # With no node retained, every round past the first runs a program built
    # for its trajectory alone. The writer keys params text on the program's
    # id, so the text must not change when thousands of programs come and go.
    cfg = ExperimentConfig(experiment=experiment, seed=4, trials=200, max_rounds=5)
    reference = _written(run_sample(cfg))
    with mock.patch.object(loops, "_RETAINED_BYTES", 0):
        assert _written(run_sample(cfg)) == reference
