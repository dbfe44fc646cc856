"""Golden bytes: `sample` and loop `sweep` outputs for fixed seeds.

The digests were recorded with the loop implementation that rebuilt every
round's program and branch operators from scratch. Any change to how loop
rounds are computed (memoized outcome trees, batched arithmetic) must
reproduce these files byte for byte.
"""
import hashlib
import json

import pytest

from qproc.cli import main

TRIALS = 200

SAMPLE_CASES = {
    "u1": ({"experiment": "u1", "params": {"alpha": 0.3}, "max_rounds": 6, "seed": 101},
           "f5ffdb2b96218d35db1d19d5890cf7c074187488e1a64f23f814492fc68265c7"),
    "bz": ({"experiment": "bz", "params": {"z": 0.8, "n_program": 2}, "max_rounds": 6, "seed": 102},
           "ca2d294798ef5680aded9f50969e274bc042fc7d4acb6dec2ba7a89f5ef8a733"),
    "bz_haar": ({"experiment": "bz_haar", "params": {}, "max_rounds": 1, "seed": 103},
                "67d43dec8d433dfef7768e4f6abd9797c6eeba09d68569e6d6977be0394f58e9"),
    "diagonal": ({"experiment": "diagonal", "params": {}, "max_rounds": 6, "seed": 104},
                 "5c339cb2618a19e61aa19baec7b61c0198d936b034f055c44dc05f3f88aeb2b6"),
    "qid2": ({"experiment": "qid2", "params": {}, "max_rounds": 8, "seed": 105},
             "e4296181731613100360748d9d9b11e587b39cae98c5993d1d08f005063681e4"),
    "qidn": ({"experiment": "qidn", "params": {"n_dim": 3}, "max_rounds": 5, "seed": 106},
             "421d68fd97efa232bce5ccb340ec8bd600fee5e5e2a3aed8110d91b0b13bd2cd"),
}

# Edge cases with their own trial counts. qidn at n_dim 8 has 64 branches per
# round and fills the outcome tree's retention cap, so later rounds run on
# nodes that are rebuilt and freed; diagonal entries [0, 1, 1] leave a
# singular residual after a failure, so 16 of the 30 traces are
# "uncorrectable".
EDGE_CASES = {
    "qidn8": ({"experiment": "qidn", "params": {"n_dim": 8}, "max_rounds": 3, "trials": 20, "seed": 108},
              "454c70cc18eaf828f4a768e5e568d297a372e96309ee3aac698711be99634958"),
    "diagonal-uncorrectable": (
        {"experiment": "diagonal", "params": {"entries": [0, 1, 1]}, "max_rounds": 4, "trials": 30, "seed": 1},
        "c8ae32d6e3083734fa36c3ba116b3b089e2bf33a3ea8caaa5d6841446b7bdc70",
    ),
}

SWEEP_CONFIG = {"experiment": "qid2", "grid": {"n": [1, 4, 8]}, "trials": 100, "seed": 107}
SWEEP_DIGEST = "da78d5c476299dea9db233b47c622b8b84d908cf026e1400a5aea434f2e62b50"


def _run(tmp_path, sub, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("experiment", sorted(SAMPLE_CASES))
def test_sample_output_bytes(tmp_path, experiment):
    config, digest = SAMPLE_CASES[experiment]
    data = _run(tmp_path, "sample", {**config, "trials": TRIALS})
    if config["max_rounds"] > 1:
        assert max(t["rounds_used"] for t in json.loads(data)["traces"]) >= 4
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_sample_edge_output_bytes(tmp_path, case):
    config, digest = EDGE_CASES[case]
    data = _run(tmp_path, "sample", config)
    traces = json.loads(data)["traces"]
    if case == "qidn8":
        assert max(t["rounds_used"] for t in traces) == config["max_rounds"]
    else:
        assert sum(t["status"] == "uncorrectable" for t in traces) == 16
    assert hashlib.sha256(data).hexdigest() == digest


def test_loop_sweep_output_bytes(tmp_path):
    assert hashlib.sha256(_run(tmp_path, "sweep", SWEEP_CONFIG)).hexdigest() == SWEEP_DIGEST
