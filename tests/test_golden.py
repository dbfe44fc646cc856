"""Golden bytes: `sample`, `sweep`, `reproduce`, `verify` and `list` outputs.

The `sample` and qid2 loop `sweep` digests were recorded with the loop
implementation that rebuilt every round's program and branch operators from
scratch; the other sweeps, the tables and the stdout digests were recorded
before the experiments were routed through one family table. Any change to
how runs are set up or computed must reproduce these outputs byte for byte.
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


# Every sweep experiment at trials 1 (exact columns only) and at trials > 1
# (the empirical column too). qidn covers two Haar target seeds; bz sets
# params.psi.
SWEEP_CASES = {
    "u1": {"experiment": "u1", "params": {"alpha": 0.3}, "grid": {"n": [1, 3, 6]}, "seed": 111},
    "diagonal": {"experiment": "diagonal", "grid": {"dim": [3, 4], "n": [1, 3]}, "seed": 112},
    "qidn": {"experiment": "qidn", "grid": {"n_dim": [2, 3], "k": [1, 3], "target_seed": [7, 23]}, "seed": 113},
    "bz": {"experiment": "bz", "params": {"psi": [0.8, 0.6]}, "grid": {"z": [0.5, 2.0], "n_program": [2, 4]}, "seed": 114},
    "b0": {"experiment": "b0", "grid": {"z": [0.5, 1.5], "dim": [2, 3], "n_program": [2, 3]}, "seed": 115},
}
SWEEP_DIGESTS = {
    ("b0", 1): "61f5c1e66f2013cefa77126e5f5ab90d691b109f8519079d8fd97d6821a45821",
    ("b0", 40): "f5387c0000ce42fb13eecc970096cbd9ec1aba917ad3a0c214bc6370d72ccf9c",
    ("bz", 1): "cc445b46fd5a61c9a11c8b6eba9e3a6f454349b50ea0a083df9673f0a492d6ee",
    ("bz", 40): "20d794de1c396565bdd5c898354f8a9c58aa9551a5328e911b02a375f1e5d29e",
    ("diagonal", 1): "de4545119c33478d733ef2337c39cde247915abf848a484b681ab82b659b2059",
    ("diagonal", 40): "1b83f4202cb5003df287043213771fb9f7256570d234d760503a302e7367cbbd",
    ("qidn", 1): "e42424f11a6d3044477533bd09e55cb2af0176f8b20d5853cd0579994e18222d",
    ("qidn", 40): "35a08173c415333b9bee2726c1fab4ca41f8f2da8327fc5ce9786448c47917e9",
    ("u1", 1): "3169c108b21f2cb954428285235fcf1b1af0247bcb2f0482378668128bcf2171",
    ("u1", 40): "4c0a6aa310af52cf712cd4bd8f0fd691f2f9cc6367b0d9041897703448ba4ca7",
}

TABLE_DIGESTS = {
    "u1": "963aba8a2372a82055dd03a46825e9f1de2504d6d601d83d74bc4ce091cf8574",
    "vmc3": "7e41f4051abbf3ec49d84eab00d5e2a67f14d23e566ede48b99aa69f4cf11f83",
    "bz": "4664b87bbd05434015f0eabae8ac92b1f73c68ee60d03bbfafb184dc43139407",
    "qutrit": "df9b7958c19717a3481a0b0d75327aec8ea4e8cb30e3b6cb1abc4857a95c31e7",
    "b0": "18c232e9785c58480814eedc1750c25785e9e268dbef669bd146b5dd2e006287",
    "qid2": "40b4b0d839fee67ba35056abdb927180cd6f7f9ac5b4a3a8ab5dd741e3306606",
    "qidN": "8d1a6a49fc94e1cf280b1c16e6eade9acbab99ceee5f13cb39ce3194414abc4b",
    "limits": "d102d719a62570e80d305898c23a68a228670ab60c6fa9d590c9edca8e50f128",
}

STDOUT_DIGESTS = {
    "list": "943f06df98cbee380917856807a504775f1ef065a4e2116601599b589d1fbbdc",
    "verify": "bbdd04b598846bcf9f064327cf79bf1e08504c1ce0d02ab39ec33f8678615040",
}


@pytest.mark.parametrize("trials", [1, 40])
@pytest.mark.parametrize("experiment", sorted(SWEEP_CASES))
def test_sweep_output_bytes(tmp_path, experiment, trials):
    data = _run(tmp_path, "sweep", {**SWEEP_CASES[experiment], "trials": trials})
    assert hashlib.sha256(data).hexdigest() == SWEEP_DIGESTS[experiment, trials]


@pytest.mark.parametrize("table", sorted(TABLE_DIGESTS))
def test_reproduce_output_bytes(tmp_path, table):
    out = tmp_path / "table.csv"
    assert main(["reproduce", "--table", table, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_DIGESTS[table]


@pytest.mark.parametrize("command", sorted(STDOUT_DIGESTS))
def test_stdout_bytes(capsys, command):
    assert main([command]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_DIGESTS[command]
