"""The `sample` trace writer: its text is json.dumps(payload, indent=2) + "\\n"."""
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import loops
from qproc.cli import SAMPLE_EXPERIMENTS, ExperimentConfig, run_sample, sample_json


def _oracle(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


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
    assert sample_json(payload) == _oracle(payload)


def _round(params, outcome="0", prob=0.5):
    return {"program_params": params, "outcome": outcome, "prob": prob}


def _trace(rounds, status="succeeded"):
    return {"rounds": rounds, "succeeded": status == "succeeded", "status": status, "rounds_used": len(rounds)}


CONFIG = {"experiment": "u1", "params": {"alpha": 0.3}, "max_rounds": 2, "trials": 1, "seed": 0, "experiment_index": 0}
SUMMARY = {"trials": 1, "successes": 1, "empirical": 1.0, "exact": 0.75, "three_sigma": 1.299038105676658}
SHARED = {"encoding": "u1", "alpha": 0.3}

HAND_BUILT = {
    "zero-rounds": {"config": CONFIG, "traces": [_trace([], "uncorrectable")], "summary": SUMMARY},
    "no-traces": {"config": CONFIG, "traces": [], "summary": SUMMARY},
    "non-ascii": {
        "config": {**CONFIG, "params": {"label": "ψ→φ größe"}},
        "traces": [_trace([_round({"encoding": "raw", "note": "é \"\\"}, outcome="ϕ")])],
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
            _trace([_round({"encoding": "weyl", "d": [[[1.0, -0.0], [0.5, 2e-300]], []], "empty": {}, "n_dim": 2})]),
            _trace([_round(SHARED), _round(SHARED, outcome="1", prob=1e-13)], "exhausted"),
        ],
        "summary": SUMMARY,
    },
    "numpy-scalars": {
        "config": CONFIG,
        "traces": [_trace([_round(SHARED, prob=np.float64(0.25))])],
        "summary": {**SUMMARY, "exact": np.float64(0.75)},
    },
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_writer_matches_json_dumps_on_edge_payloads(case):
    payload = HAND_BUILT[case]
    assert sample_json(payload) == _oracle(payload)


def test_rounds_of_one_program_share_its_params():
    payload = run_sample(ExperimentConfig(experiment="u1", seed=3, trials=30, max_rounds=4))
    firsts = [t["rounds"][0]["program_params"] for t in payload["traces"]]
    assert all(p is firsts[0] for p in firsts)


@pytest.mark.parametrize("experiment", ["u1", "qid2", "qidn"])
def test_params_memo_survives_rebuilt_programs(experiment):
    # With no node retained, every round past the first runs a program that
    # is built, used and freed, so CPython soon reuses its id for another.
    cfg = ExperimentConfig(experiment=experiment, seed=4, trials=200, max_rounds=5)
    reference = run_sample(cfg)
    with mock.patch.object(loops, "_RETAINED_BYTES", 0):
        assert run_sample(cfg) == reference
