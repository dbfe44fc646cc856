"""Tests for the command-line harness: verify, reproduce, sweep, sample, list."""
import csv
import io
import itertools
import json
import random
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import cli, loops, qlinalg, zoo
from qproc.cli import ExperimentConfig, UsageError, main, reproduce_table, run_sample, run_sweep, trace_to_dict
from qproc.processor import ProcessorDefinition, decompose, select_branch
from qproc.streams import CHUNK, derive_stream, reseeded, trial_indices, uniform_draws


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, lines[1:]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fresh_build_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "verification: OK" in out
    assert "resolved (oracle)" in out


def test_verify_corrupted_processor_fails(monkeypatch, capsys):
    bad_blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    bad_blocks[0, 0] = np.eye(2)
    corrupted = ProcessorDefinition(data_dim=2, program_dim=2, blocks=bad_blocks, label="corrupted")
    monkeypatch.setattr(cli, "PROCESSOR_CATALOG", cli.PROCESSOR_CATALOG + [("corrupted", lambda: corrupted)])
    assert main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_network_check_fails_on_a_wrong_network(monkeypatch, capsys):
    real = zoo.qid_network

    def swapped(n):
        g = real(n).copy()
        g[:, [0, 1]] = g[:, [1, 0]]
        return g

    zoo.qidN(2), zoo.qidN(3)  # keep the cached processors genuine for later tests
    monkeypatch.setattr(zoo, "qid_network", swapped)
    assert main(["verify"]) == 1
    line = next(x for x in capsys.readouterr().out.splitlines() if "distributor network basis action" in x)
    assert "FAIL" in line


def test_verify_reports_both_errata(capsys):
    main(["verify"])
    out = capsys.readouterr().out
    assert "bz-success-denominator" in out
    assert "vmc3-program-phases" in out


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table", cli.REPRODUCE_TABLES)
def test_reproduce_tables_meet_tolerance(table):
    rows = reproduce_table(table)
    assert rows
    for row in rows:
        if row.paper_value is None:
            continue
        assert row.deviation <= 1e-9 or row.note, f"{row.quantity}: unflagged deviation {row.deviation}"


def test_reproduce_flagged_rows_are_explained():
    for table in cli.REPRODUCE_TABLES:
        for row in reproduce_table(table):
            if row.note:
                assert row.note.startswith(("approx", "erratum")), row.note


def test_reproduce_limits_within_1e6():
    for row in reproduce_table("limits"):
        assert row.deviation <= 1e-6


def test_reproduce_writes_csv(tmp_path, capsys):
    out = tmp_path / "u1.csv"
    assert main(["reproduce", "--table", "u1", "--out", str(out)]) == 0
    header, body = _read_rows(out)
    assert header == ["quantity", "params", "computed", "empirical", "paper_value", "deviation", "note"]
    assert len(body) == len(reproduce_table("u1"))


def test_reproduce_is_stable_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["reproduce", "--table", "qid2", "--out", str(a)])
    main(["reproduce", "--table", "qid2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_unknown_table_is_usage_error(capsys):
    assert main(["reproduce", "--table", "nope", "--out", "/tmp/x.csv"]) == 2
    assert "unknown table" in capsys.readouterr().err


def test_reproduce_nan_tol_is_usage_error(tmp_path, capsys):
    out = tmp_path / "u1.csv"
    assert main(["reproduce", "--table", "u1", "--tol", "nan", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_reproduce_negative_tol_is_usage_error(tmp_path, capsys):
    """A negative tol would flag every row, even an exact one, as a verification failure (exit 1)."""
    out = tmp_path / "u1.csv"
    assert main(["reproduce", "--table", "u1", "--tol=-0.001", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: tol must be non-negative, got -0.001\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_qid2_matches_closed_form(tmp_path):
    cfg = ExperimentConfig(experiment="qid2", grid={"n": list(range(1, 31))})
    rows = run_sweep(cfg)
    assert len(rows) == 30
    for n, row in enumerate(rows, start=1):
        assert abs(row.computed - (1 - 0.75**n)) <= 1e-9
        assert row.deviation <= 1e-9


def test_sweep_empty_range_gives_header_only(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "qid2", "grid": {"n": []}}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, body = _read_rows(out)
    assert header == ["quantity", "params", "computed", "empirical", "paper_value", "deviation", "note"]
    assert body == []


def test_sweep_with_trials_fills_empirical_column():
    cfg = ExperimentConfig(experiment="qid2", grid={"n": [1, 2]}, trials=3000, seed=11)
    rows = run_sweep(cfg)
    for n, row in zip((1, 2), rows):
        exact = 1 - 0.75**n
        sigma = np.sqrt(exact * (1 - exact) / 3000)
        assert row.empirical is not None
        assert abs(row.empirical - exact) <= 3 * sigma


def test_sweep_single_shot_empirical_column():
    cfg = ExperimentConfig(experiment="bz", grid={"z": [0.8]}, params={"n_program": 4}, trials=3000, seed=12)
    (row,) = run_sweep(cfg)
    sigma = np.sqrt(row.computed * (1 - row.computed) / 3000)
    assert abs(row.empirical - row.computed) <= 3 * sigma


@settings(max_examples=30)
@given(
    experiment=st.sampled_from(["bz", "b0"]),
    modulus=st.floats(0.2, 3.0),
    phase=st.floats(-np.pi, np.pi),
    n_program=st.integers(2, 6),
    dim=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(2, 300),
)
def test_sweep_single_shot_hits_equal_per_shot_select_branch(experiment, modulus, phase, n_program, dim, seed, trials):
    """The vectorised shots count the hits of select_branch on derive_stream(seed, point, t + 1)."""
    z = complex(modulus * np.cos(phase), modulus * np.sin(phase))
    grid = {"z": [0.5, [z.real, z.imag]], "n_program": [n_program]}
    if experiment == "bz":
        proc, psi = zoo.cyclic_shift_processor(n_program), qlinalg.normalize(np.array([0.6, 0.8], dtype=complex))
    else:
        grid["dim"] = [dim]
        proc, psi = zoo.amp_modifier_processor(dim, n_program), np.ones(dim, dtype=complex) / np.sqrt(dim)
    rows = run_sweep(ExperimentConfig(experiment=experiment, grid=grid, trials=trials, seed=seed))
    dec = decompose(proc, psi, zoo.geometric_program(z, n_program))
    fail = dec.branches[-1].label
    hits = sum(select_branch(dec, derive_stream(seed, 1, t + 1)).label != fail for t in range(trials))
    assert rows[1].empirical == hits / trials


@pytest.mark.parametrize(
    "experiment, grid, trials",
    [
        ("bz", {"z": [0.5, [0.3, 1.2]], "n_program": [2, 3]}, CHUNK - 1),
        ("bz", {"z": [2.0], "n_program": [2, 4, 3]}, CHUNK + 1),
        ("b0", {"z": [0.7, [0.2, -0.9]], "dim": [2, 3], "n_program": [3]}, CHUNK // 2 + 1),
        ("b0", {"z": [1.5], "dim": [3], "n_program": [2, 3]}, CHUNK),
        ("qid2", {"n": [1, 3, 2]}, CHUNK // 3 + 1),
    ],
)
def test_sweep_streams_do_not_depend_on_how_points_share_passes(experiment, grid, trials):
    """README's Determinism claim for sweeps: with passes spanning points, each point's empirical value is its own trials'.

    Every grid's points x trials straddles a pass boundary. A shot point's
    reference is select_branch on derive_stream(seed, i, t + 1), a loop
    point's is run_loop on that stream alone, on a fresh tree.
    """
    seed = 2**40 + 3
    rows = run_sweep(ExperimentConfig(experiment=experiment, grid=grid, trials=trials, seed=seed))
    for index, (row, values) in enumerate(zip(rows, itertools.product(*grid.values()), strict=True)):
        point = dict(zip(grid, values))
        rngs = [derive_stream(seed, index, t + 1) for t in range(trials)]
        if experiment == "qid2":
            tree = loops.OutcomeTree(zoo.qid2(), qlinalg.su2_exp(np.array([0.2, -0.5, 0.9])), loops.qid2_rule())
            psi = np.ones(2, dtype=complex) / np.sqrt(2)
            hits = sum(loops.run_loop(tree, psi, point["n"], rng).succeeded for rng in rngs)
        else:
            z = complex(*point["z"]) if isinstance(point["z"], list) else point["z"]
            n = point["n_program"]
            if experiment == "bz":
                proc, psi = zoo.cyclic_shift_processor(n), qlinalg.normalize(np.array([0.6, 0.8], dtype=complex))
            else:
                dim = point["dim"]
                proc, psi = zoo.amp_modifier_processor(dim, n), np.ones(dim, dtype=complex) / np.sqrt(dim)
            dec = decompose(proc, psi, zoo.geometric_program(z, n))
            hits = sum(select_branch(dec, rng).label != dec.branches[-1].label for rng in rngs)
        assert row.empirical == hits / trials, row.params


def test_sweep_bz_success_increases_with_program_dimension():
    for z in (0.25, 0.5, 1.0, 1.5, 2.0):
        cfg = ExperimentConfig(experiment="bz", grid={"z": [z], "n_program": list(range(2, 9))})
        values = [row.computed for row in run_sweep(cfg)]
        assert all(b > a for a, b in zip(values, values[1:])), f"not monotone at z={z}"


def test_sweep_deterministic_ordering():
    cfg = ExperimentConfig(experiment="bz", grid={"z": [0.5, 1.5], "n_program": [2, 3]})
    labels = [row.params for row in run_sweep(cfg)]
    assert labels == ["z=0.5,n_program=2", "z=0.5,n_program=3", "z=1.5,n_program=2", "z=1.5,n_program=3"]


def test_sweep_requires_grid():
    with pytest.raises(UsageError):
        run_sweep(ExperimentConfig(experiment="qid2"))


def test_sweep_unknown_experiment(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "mystery", "grid": {"n": [1]}}))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "bz", "params": {"psi": [0.6, 0.8, 0.0]}, "grid": {"z": [0.5]}},
        {"experiment": "qid2", "grid": {"n": ["x"]}},
        {"experiment": "qid2", "grid": {"n": 5}},
        {"experiment": "qid2", "grid": {"n": [0]}},
        {"experiment": "u1", "params": {"alpha": "a"}, "grid": {"n": [1]}},
        {"experiment": "u1", "params": {"psi": [1, 0, 0]}, "grid": {"n": [1]}},
        {"experiment": "qid2", "grid": {"n": [1]}, "tol": float("nan")},
        {"experiment": "qid2", "grid": {"n": [1]}, "tol": -0.5},
        {"experiment": "diagonal", "params": {"entries": [1, 1, 1]}, "grid": {"dim": [3, 5], "n": [2]}},
        {"experiment": "qid2", "grid": {"n": [1]}, "max_rounds": 3},
        {"experiment": "qid2", "grid": {"n": [1]}, "experiment_index": 1},
        {"experiment": "bz", "grid": {"z": [1e20], "n_program": [8]}},
        {"experiment": "bz", "grid": {"z": [1e160]}},
        {"experiment": "b0", "grid": {"z": [1e160]}},
        {"experiment": "qidn", "params": {"target": [[0, 0], [0, 0]]}, "grid": {"n_dim": [2], "k": [1]}},
        {"experiment": "diagonal", "params": {"entries": [1e155, 1, 1]}, "grid": {"n": [3]}},
        {"experiment": "diagonal", "params": {"entries": [1e300, 1, 1]}, "grid": {"n": [3]}},
        {"experiment": "u1", "params": {"alpah": 1.2}, "grid": {"n": [1]}},
        {"experiment": "u1", "params": {"alpah": 1.2}, "grid": {"n": []}},
        {"experiment": "bz", "grid": {"z": [0.5], "n": [1, 2]}},
        {"experiment": "b0", "grid": {"z": [0.5], "n": [1, 2]}},
        {"experiment": "qid2", "grid": {"n": [1], "k": [1]}},
        {"experiment": "diagonal", "params": {"entries": [1, 1, 1]}, "grid": {"phases": [[0, 1, 2]], "n": [1]}},
        {"experiment": "qidn", "params": {"target": [[1, 0], [0, 1]], "target_seed": 3}, "grid": {"k": [1]}},
        {"experiment": "qidn", "params": {"target_seed": 3}, "grid": {"target": ["haar", [[1, 0], [0, 1]]], "k": [1]}},
        {"experiment": "qid2", "grid": {"n": [10**20]}},
        {"experiment": "qidn", "grid": {"k": [cli._MAX_ROUNDS + 1]}},
    ],
    ids=[
        "bz-psi-dim", "n-not-number", "grid-not-list", "n-zero", "alpha-not-number", "u1-psi-dim", "tol-nan",
        "tol-negative", "diagonal-dim-not-entries", "max-rounds-unread", "experiment-index-unread",
        "bz-z-power-overflows", "bz-z-square-overflows", "b0-z-square-overflows", "qidn-target-zero",
        "diagonal-entries-norm-overflows", "diagonal-entries-huge", "u1-misspelled-key", "misspelled-key-empty-grid",
        "bz-n-unread", "b0-n-unread", "qid2-k-unread", "diagonal-entries-and-phases", "qidn-target-rows-and-seed",
        "qidn-grid-target-rows-and-seed", "n-1e20", "k-past-round-cap",
    ],
)
def test_sweep_bad_config_is_usage_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "sample"])
def test_qid2_mu_past_sinc_precision_is_usage_error(tmp_path, capsys, command):
    """At |mu| = 1e200 np.sinc loses precision and su2_exp(mu) is not unitary: exit 2, not a traceback."""
    config = {"experiment": "qid2", "params": {"mu": [1e200, 0, 0]}}
    config.update({"grid": {"n": [1]}} if command == "sweep" else {"max_rounds": 2, "trials": 5})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("experiment", ["qid2", "u1"])
def test_sweep_round_budget_past_the_recursion_limit(tmp_path, experiment):
    """The exact walk runs a chain of collapsed nodes in a loop, so n = 2000 runs and meets the loop law."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "grid": {"n": [2000]}}))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, (line,) = _read_rows(out)
    computed = float(line.split(",")[header.index("computed")])
    program_dim = {"qid2": 4, "u1": 2}[experiment]
    assert abs(computed - zoo.loop_success(program_dim, 2000)) <= 1e-12


def test_sweep_round_budget_at_its_cap_runs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "u1", "grid": {"n": [cli._MAX_ROUNDS]}}))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, (line,) = _read_rows(out)
    assert abs(float(line.split(",")[header.index("computed")]) - zoo.loop_success(2, cli._MAX_ROUNDS)) <= 1e-12


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_qidn_loop_whose_corrected_operator_squares_overflow(tmp_path, capsys, command):
    """Past |v_ij| ~ 1.3e154 the squares in a corrected operator's Frobenius norm overflow, though the operator
    is finite; zoo.program_for then takes the norm of v / max|v|, so the loop runs, with no warning."""
    params = {"n_dim": 2, "target": [[1e153, 9e152], [0, 1e151]]}
    config = {"experiment": "qidn", "params": params}
    config.update({"grid": {"k": [1, 8]}, "trials": 5} if command == "sweep" else {"max_rounds": 8, "trials": 20})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "sample":
        assert "exact=0.499308" in captured.out


def test_sample_round_budget_past_the_recursion_limit(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "qid2", "max_rounds": 2000, "trials": 5, "seed": 3}))
    out = tmp_path / "x.json"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["summary"]["exact"] - zoo.loop_success(4, 2000)) <= 1e-12


# Grids whose points share outcome trees: the round key first, in the middle or
# last; the default Haar target; a non-collapsing (non-unitary) diagonal from
# two data states.
SHARED_SWEEPS = [
    ("qid2", {}, {"mu": [[0.2, -0.5, 0.9], [1.0, 0.1, -0.3]], "n": [1, 2, 5, 9]}),
    ("u1", {"psi": [0.6, 0.8]}, {"n": [1, 3, 4, 8], "alpha": [0.3, 1.1]}),
    ("qidn", {}, {"n_dim": [2, 3], "k": [1, 2, 4], "target_seed": [3, 7]}),
    ("qidn", {}, {"n_dim": [2], "k": [1, 3, 2]}),
    ("diagonal", {"entries": [0.5, [1.1, 0.3], 0.9]}, {"n": [1, 2, 3, 4], "psi": [[0.6, 0, 0.8], [0.8, 0.6, 0]]}),
]


@pytest.mark.parametrize(
    "case, loops_in_grid",
    [
        (SHARED_SWEEPS[0], 2),  # one tree per mu
        (SHARED_SWEEPS[2], 4),  # per (n_dim, target_seed)
        (SHARED_SWEEPS[3], 1),  # every point draws the default target_seed's Haar target
        (SHARED_SWEEPS[4], 2),  # per psi
    ],
)
def test_sweep_shares_one_tree_per_loop(monkeypatch, case, loops_in_grid):
    experiment, params, grid = case
    trees = []

    class CountedTree(loops.OutcomeTree):
        def __init__(self, *args):
            super().__init__(*args)
            trees.append(self)

    monkeypatch.setattr(loops, "OutcomeTree", CountedTree)
    run_sweep(ExperimentConfig(experiment, params=params, grid=grid))
    assert len(trees) == loops_in_grid


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(SHARED_SWEEPS), trials=st.sampled_from([1, 4]), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_sweep_rows_equal_per_point_evaluation(case, trials, seed, data):
    """Points that share a tree give the rows of points evaluated alone, on a shuffled grid."""
    experiment, params, grid = case
    grid = {k: data.draw(st.permutations(v)) for k, v in grid.items()}
    rows = run_sweep(ExperimentConfig(experiment, params=params, grid=grid, trials=trials, seed=seed))
    for index, (row, values) in enumerate(zip(rows, itertools.product(*grid.values()), strict=True)):
        merged = {**params, **dict(zip(grid, values))}
        _, computed, closed, hits = cli._sweep_point(experiment, merged, (seed, index, 0))
        assert row.computed == computed and row.paper_value == closed
        if trials > 1:  # the point's streams derived alone, not in passes that span points
            assert row.empirical == sum(map(hits, uniform_draws((seed, index), trial_indices(trials)))) / trials


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_byte_identical_across_runs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "qid2", "max_rounds": 3, "trials": 500, "seed": 9}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sample", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["sample", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_peak_memory_stays_below_the_file_size(tmp_path):
    # The trace file is written piece by piece as it is rendered. Held whole,
    # with the copies that joining its pieces makes, it would peak at about
    # four times its own size.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "traces.json"
    cfg_path.write_text(json.dumps({"experiment": "qid2", "max_rounds": 8, "trials": 8000, "seed": 5}))
    tracemalloc.start()
    try:
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


def test_sample_draws_each_round_when_a_trial_reaches_it(tmp_path):
    # 4097 trials cross a stream chunk. u1 ends at the first success, so a
    # walk that drew every trial's max_rounds uniforms up front would hold
    # a 4097 x 2000 float matrix (66 MB); drawing per round needs one state
    # per trial.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "traces.json"
    cfg_path.write_text(json.dumps({"experiment": "u1", "max_rounds": 2000, "trials": 4097, "seed": 5}))
    tracemalloc.start()
    try:
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("experiment", cli.SAMPLE_EXPERIMENTS)
def test_sample_trials_are_independent_of_order_and_tree(experiment):
    """Trial t's trace is run_loop on derive_stream(seed, e, t + 1) alone: any order, a fresh tree each."""
    cfg = ExperimentConfig(experiment=experiment, max_rounds=1 if experiment == "bz_haar" else 4, trials=40, seed=31, experiment_index=2)
    traces = run_sample(cfg)["traces"]
    tree, _ = cli._loop_setup(cfg)
    proc, rule, target, fixed_psi = tree.proc, tree.rule, tree.target, tree.psi
    order = list(range(cfg.trials))
    random.Random(experiment).shuffle(order)
    for t in order:
        rng = derive_stream(cfg.seed, cfg.experiment_index, t + 1)
        psi = fixed_psi if fixed_psi is not None else qlinalg.random_state(proc.data_dim, rng)
        trace = loops.run_loop(loops.OutcomeTree(proc, target, rule), psi, cfg.max_rounds, rng)
        assert trace_to_dict(trace) == trace_to_dict(traces[t])


@pytest.mark.parametrize("experiment", cli.SAMPLE_EXPERIMENTS)
def test_sample_trials_run_concurrently_give_the_same_traces(experiment):
    """README's Determinism claim: four threads, each on its own tree and a contiguous range of streams, give run_sample's traces."""
    cfg = ExperimentConfig(experiment=experiment, max_rounds=1 if experiment == "bz_haar" else 4, trials=2001, seed=37, experiment_index=1)
    want = [trace_to_dict(t) for t in run_sample(cfg)["traces"]]
    setup, _ = cli._loop_setup(cfg)
    entropy, ks = (cfg.seed, cfg.experiment_index), trial_indices(cfg.trials)
    bounds = [ks.start + len(ks) * q // 4 for q in range(5)]
    start = threading.Barrier(4, timeout=60)  # every range runs while the others do

    def walk(part: range) -> list:
        tree = loops.OutcomeTree(setup.proc, setup.target, setup.rule, setup.psi)
        start.wait()
        if tree.psi is None:  # bz_haar: a Haar-random state per trial, from the trial's stream
            dim = tree.proc.data_dim
            return [loops.run_loop(tree, qlinalg.random_state(dim, rng), cfg.max_rounds, rng) for rng in reseeded(entropy, part)]
        return [t for n, draw in uniform_draws(entropy, part) for t in loops.run_trials(tree, cfg.max_rounds, n, draw)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the ranges' rounds interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parts = list(pool.map(walk, [range(a, b) for a, b in zip(bounds, bounds[1:])]))
    finally:
        sys.setswitchinterval(interval)
    assert [len(part) for part in parts] == [500, 500, 500, 501]
    assert [trace_to_dict(t) for part in parts for t in part] == want


def test_sample_summary_within_three_sigma(tmp_path):
    cfg = ExperimentConfig(experiment="qidn", params={"n_dim": 2}, max_rounds=1, trials=4000, seed=42)
    payload = run_sample(cfg)
    s = payload["summary"]
    assert abs(s["empirical"] - s["exact"]) <= s["three_sigma"]
    assert s["trials"] == 4000
    assert len(payload["traces"]) == 4000


def test_sample_single_trial_trace_schema(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "u1", "params": {"alpha": 0.4}, "max_rounds": 4, "trials": 1, "seed": 3}))
    out = tmp_path / "one.json"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "traces", "summary"}
    trace = payload["traces"][0]
    assert set(trace) == {"rounds", "succeeded", "status", "rounds_used"}
    for r in trace["rounds"]:
        assert set(r) == {"program_params", "outcome", "prob"}


def test_jsonify_complex_array_gives_the_floats_of_each_entry():
    d = np.array([[1 + 2j, complex(-0.0, -0.0)], [complex(np.nan, np.inf), complex(3e-300, -1e300)]])
    want = [[[z.real, z.imag] for z in row] for row in d.tolist()]
    got = cli._jsonify(d)
    assert json.dumps(got) == json.dumps(want)  # json text tells -0.0 and nan apart
    assert {type(x) for row in got for pair in row for x in pair} == {float}


def test_sample_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "u1", "trials": 50, "seed": 1}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["sample", "--config", str(cfg_path), "--out", str(a)])
    main(["sample", "--config", str(cfg_path), "--seed", "2", "--out", str(b)])
    assert json.loads(a.read_text())["config"]["seed"] == 1
    assert json.loads(b.read_text())["config"]["seed"] == 2
    assert a.read_bytes() != b.read_bytes()


def test_sample_bz_haar_requires_single_round(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "bz_haar", "max_rounds": 2, "trials": 10, "seed": 1}))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")]) == 2


def test_sample_unknown_experiment(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "nope", "trials": 1, "seed": 1}))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")]) == 2


def test_sample_missing_config_file(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("command", ["sample", "sweep"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, command, kind):
    path = tmp_path / "cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'\xff\xfe{"experiment": "u1"}')
    assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["sample", "reproduce"])
def test_out_directory_is_usage_error_before_the_run(tmp_path, capsys, monkeypatch, command):
    def no_run(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_sample", no_run)
    monkeypatch.setattr(cli, "reproduce_table", no_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "u1", "trials": 5}))
    argv = ["sample", "--config", str(cfg_path)] if command == "sample" else ["reproduce", "--table", "u1"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["sample", "reproduce"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"  # its parent is a regular file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "u1", "trials": 5}))
    argv = ["sample", "--config", str(cfg_path)] if command == "sample" else ["reproduce", "--table", "u1"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_sample_bz_first_program_at_large_z(tmp_path):
    """At z = 1e13 the first program is the target's own; only corrected ratios meet the range cutoff."""
    z = 1e13
    payload = run_sample(ExperimentConfig("bz", params={"z": z, "psi": [0.6, 0.8]}, max_rounds=1, trials=50, seed=1))
    (row,) = run_sweep(ExperimentConfig("bz", grid={"z": [z]}))
    assert abs(payload["summary"]["exact"] - row.computed) <= 1e-12
    assert {trace_to_dict(t)["status"] for t in payload["traces"]} == {"succeeded", "exhausted"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "bz_haar", "params": {"z": z}, "max_rounds": 1, "trials": 200}))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "x.json"), "--tol", "0"]) == 0


def test_default_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    assert main(["reproduce", "--table", "u1"]) == 0
    assert (tmp_path / "reproduce_u1.csv").exists()


# ---------------------------------------------------------------------------
# config validation and list
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="u1", trials=0)
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict({"experiment": "u1", "bogus": 1})
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict({"trials": 5})


def test_sample_bz_whose_corrected_program_overflows_is_uncorrectable(tmp_path):
    """At z = 1.5, N = 64 the first corrected ratio z^64 is past geometric_program's range: no program exists."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "x.json"
    config = {"experiment": "bz", "params": {"z": 1.5, "n_program": 64}, "max_rounds": 4, "trials": 200, "seed": 3}
    cfg_path.write_text(json.dumps(config))
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {(t["status"], len(t["rounds"])) for t in payload["traces"]} == {("succeeded", 1), ("uncorrectable", 1)}
    one_shot = zoo.geometric_success(1.5, 64, zoo.bz_norm2(1.5, 0.5))
    assert abs(payload["summary"]["exact"] - one_shot) <= 1e-12


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"experiment": "u1", "trials": "5"}, []),
        ({"experiment": "u1", "trials": 5.5}, []),
        ({"experiment": "u1", "params": {"psi": [1, 0, 0]}, "trials": 2}, []),
        ({"experiment": "qidn", "params": {"n_dim": 3, "psi": [1, 0]}, "trials": 2}, []),
        ({"experiment": "u1", "params": {"psi": [0, 0]}}, []),
        ({"experiment": "u1", "seed": -1}, []),
        ({"experiment": "u1", "params": 5}, []),
        ({"experiment": "u1"}, ["--trials", "0"]),
        ({"experiment": "qidn", "params": {"n_dim": 2, "target": 5}}, []),
        ({"experiment": "qidn", "params": {"n_dim": 2, "target": [[1, 0], [0]]}}, []),
        ({"experiment": "diagonal", "params": {"entries": [1, "a"]}}, []),
        ({"experiment": "qid2", "trials": 50, "tol": float("nan")}, []),
        ({"experiment": "qid2", "trials": 50}, ["--tol", "nan"]),
        ({"experiment": "qid2", "trials": 50, "tol": -0.5}, []),
        ({"experiment": "qid2", "trials": 50}, ["--tol=-0.001"]),
        ({"experiment": "u1", "params": {"psi": ["1", "0"]}}, []),
        ({"experiment": "u1", "params": {"psi": [1e308, 1e308]}}, []),
        ({"experiment": "u1", "grid": {"n": [1, 2]}}, []),
        ({"experiment": "bz_haar", "params": {"z": 1e20, "n_program": 8}, "max_rounds": 1}, []),
        ({"experiment": "bz_haar", "params": {"z": 1e160}, "max_rounds": 1}, []),
        ({"experiment": "bz_haar", "params": {"psi": [1, 0]}, "max_rounds": 1, "trials": 3}, []),
        ({"experiment": "bz", "params": {"z": 1e160}, "max_rounds": 1}, []),
        ({"experiment": "bz", "params": {"z": 1e150, "n_program": 64}, "max_rounds": 4}, []),
        ({"experiment": "qidn", "params": {"n_dim": 2, "target": [[0, 0], [0, 0]]}}, []),
        ({"experiment": "qidn", "params": {"n_dim": 2, "target": [[1e-13, 0], [0, 0]]}}, []),
        ({"experiment": "qidn", "params": {"n_dim": 2, "target": [[1e300, 0], [0, 1e300]]}}, []),
        ({"experiment": "diagonal", "params": {"entries": [1e155, 1, 1]}, "max_rounds": 3}, []),
        ({"experiment": "diagonal", "params": {"entries": [1e300, 1, 1]}, "max_rounds": 3}, []),
        ({"experiment": "u1", "params": {"alpah": 1.2}}, []),
        ({"experiment": "u1", "params": {"n": 4}}, []),
        ({"experiment": "diagonal", "params": {"entries": [1, 1, 1], "phases": [0, 1, 2]}}, []),
        ({"experiment": "qidn", "params": {"target": [[1, 0], [0, 1]], "target_seed": 3}}, []),
        ({"experiment": "u1", "seed": True}, []),
        ({"experiment": "u1", "seed": 1e3}, []),
        ({"experiment": "u1", "max_rounds": True}, []),
        ({"experiment": "u1", "experiment_index": -1}, []),
        ({"experiment": "diagonal", "params": {"entries": []}}, []),
        ({"experiment": "diagonal", "params": {"phases": []}}, []),
        ({"experiment": "qid2", "max_rounds": 10**20}, []),
        ({"experiment": "u1", "max_rounds": cli._MAX_ROUNDS + 1}, []),
    ],
    ids=[
        "trials-str", "trials-float", "psi-dim", "qidn-psi-dim", "psi-zero", "seed-negative", "params-not-object",
        "trials-flag-0", "qidn-target-not-list", "qidn-target-ragged", "diagonal-entry-not-number",
        "tol-nan", "tol-flag-nan", "tol-negative", "tol-flag-negative", "psi-strings", "psi-norm-overflow", "grid-unread",
        "bz-haar-z-power-overflows", "bz-haar-z-square-overflows", "bz-haar-psi-unread", "bz-z-square-overflows", "bz-z-power-overflows",
        "qidn-target-zero", "qidn-target-norm-tiny", "qidn-target-norm-overflows",
        "diagonal-entries-norm-overflows", "diagonal-entries-huge", "u1-misspelled-key", "n-unread",
        "diagonal-entries-and-phases", "qidn-target-rows-and-seed", "seed-bool", "seed-float", "max-rounds-bool",
        "experiment-index-negative", "diagonal-entries-empty", "diagonal-phases-empty", "max-rounds-1e20",
        "max-rounds-past-cap",
    ],
)
def test_sample_bad_config_is_usage_error(tmp_path, capsys, config, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "x.json"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("sample", {"experiment": "diagonal", "params": {"entries": [1, 0.5, 0.25]}, "max_rounds": 2, "trials": 3}),
        ("sample", {"experiment": "qidn", "params": {"target": "haar", "target_seed": 3}, "trials": 3}),
        ("sweep", {"experiment": "qidn", "params": {"target": [[0, 1], [1, 0]]}, "grid": {"k": [1, 2]}}),
    ],
    ids=["entries-beside-default-phases", "haar-target-with-seed", "target-rows-beside-default-seed"],
)
def test_only_given_keys_can_exclude_each_other(tmp_path, command, config):
    """A command's defaults (sample's diagonal phases, sweep's target_seed 7) never exclude a given key."""
    assert _exit_code(tmp_path, command, config) == 0


def test_integer_config_fields_are_exact_at_any_size(tmp_path):
    """A seed past float range runs: `_integer` does not take its value through float."""
    assert _exit_code(tmp_path, "sample", {"experiment": "u1", "seed": 2**1100, "trials": 3}) == 0
    assert json.loads((tmp_path / "out").read_text())["config"]["seed"] == 2**1100
    cfg = ExperimentConfig("u1", seed=np.int64(5), experiment_index=np.int64(3))
    assert (cfg.seed, cfg.experiment_index) == (5, 3) and type(cfg.experiment_index) is int


def test_sample_exact_rounded_past_one_has_zero_three_sigma(tmp_path):
    """bz from psi (0, 1) at z 1.51171875, N 4 and 3 rounds sums its exact success to 1 + 4.4e-16."""
    config = {"experiment": "bz", "params": {"psi": [0, 1], "z": 1.51171875, "n_program": 4}, "max_rounds": 3, "trials": 5}
    assert _exit_code(tmp_path, "sample", config) == 0
    summary = json.loads((tmp_path / "out").read_text())["summary"]
    assert summary["exact"] > 1 and summary["three_sigma"] == 0.0


def test_sample_psi_accepts_re_im_pairs(tmp_path):
    # B(z) success depends on |psi_1|, so dropping the imaginary part would show.
    def traces(psi):
        payload = run_sample(ExperimentConfig("bz", params={"z": 0.5, "psi": psi}, max_rounds=3, trials=40, seed=4))
        return [trace_to_dict(t) for t in payload["traces"]]

    cfg_path, out = tmp_path / "cfg.json", tmp_path / "pairs.json"
    config = {"experiment": "bz", "params": {"z": 0.5, "psi": [[0.6, 0], [0, 0.8]]}, "max_rounds": 3, "trials": 40, "seed": 4}
    cfg_path.write_text(json.dumps(config))
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["traces"] == traces([0.6, 0.8j]) != traces([1, 0])


def test_list_shows_everything(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for table in cli.REPRODUCE_TABLES:
        assert table in out
    for exp in cli.SAMPLE_EXPERIMENTS:
        assert exp in out


def test_main_builds_one_parser_per_process(capsys):
    cli.build_parser.cache_clear()
    assert main(["list"]) == 0
    assert main(["list"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


def test_main_runs_the_command_bound_when_it_is_called(monkeypatch, tmp_path, capsys):
    # A tracer replaces cli.cmd_sample after the parser exists; main must call the replacement.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "u1", "trials": 2}))
    argv = ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    seen = []
    original = cli.cmd_sample
    monkeypatch.setattr(cli, "cmd_sample", lambda args: seen.append(args.command) or original(args))
    assert main(argv) == 0
    assert seen == ["sample"]


# ---------------------------------------------------------------------------
# experiment registry: every listed experiment runs, and each family reads
# the same keys in sample and sweep
# ---------------------------------------------------------------------------

# The smallest grid each sweep experiment accepts: one point.
ONE_POINT = {
    "u1": {"n": [1]},
    "diagonal": {"n": [1]},
    "qid2": {"n": [1]},
    "qidn": {"k": [1]},
    "bz": {"z": [0.5]},
    "b0": {"z": [0.5]},
}


def _listed(capsys, command):
    assert main(["list"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith(f"{command} experiments: "))
    return line.split(": ", 1)[1].split(", ")


def _exit_code(tmp_path, command, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])


def test_every_listed_sample_experiment_runs(tmp_path, capsys):
    for experiment in _listed(capsys, "sample"):
        assert _exit_code(tmp_path, "sample", {"experiment": experiment, "trials": 1}) == 0, experiment


def test_every_listed_sweep_experiment_runs(tmp_path, capsys):
    listed = _listed(capsys, "sweep")
    assert sorted(listed) == sorted(ONE_POINT)
    for experiment in listed:
        assert _exit_code(tmp_path, "sweep", {"experiment": experiment, "grid": ONE_POINT[experiment]}) == 0, experiment


@pytest.mark.parametrize("command, experiment", [("sample", "b0"), ("sweep", "bz_haar"), ("sample", "qidN"), ("sweep", "x")])
def test_experiment_not_listed_for_the_command_is_usage_error(tmp_path, capsys, command, experiment):
    config = {"experiment": experiment, "grid": {"n": [1], "z": [0.5]}}
    assert _exit_code(tmp_path, command, config) == 2
    assert f"unknown {command} experiment" in capsys.readouterr().err


def test_diagonal_sweep_reads_entries():
    grid = {"n": [2]}
    (default,) = run_sweep(ExperimentConfig("diagonal", grid=grid))
    (given,) = run_sweep(ExperimentConfig("diagonal", params={"entries": [1, 0.5, [0, 0.25]]}, grid=grid))
    assert given.computed != default.computed
    assert given.computed < zoo.loop_success(3, 2)  # a non-unitary target succeeds less often
    assert given.paper_value is None and given.deviation is None  # the loop law is no reference for it


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "diagonal", "params": {"entries": [1e-300, 1, 1]}, "grid": {"n": [3]}},
        {"experiment": "qidn", "params": {"target": [[1e-6, 0], [0, 1]]}, "grid": {"n_dim": [2], "k": [3]}},
        # Not unitary at any scale: the test of m^dag m = cI is relative to c.
        {"experiment": "diagonal", "params": {"entries": [1e-5, 2e-5, 3e-5]}, "grid": {"n": [3]}},
        {"experiment": "qidn", "params": {"target": [[1e-5, 0], [0, 2e-5]]}, "grid": {"k": [3]}},
    ],
    ids=["diagonal-entry-tiny", "qidn-target-not-unitary", "diagonal-small-scale", "qidn-small-scale"],
)
def test_sweep_of_a_non_unitary_target_has_no_reference(tmp_path, config):
    """The loop law holds for unitary targets only; any other loop has no reference to fail against."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    (row,) = csv.DictReader(io.StringIO(out.read_text()))
    assert row["paper_value"] == row["deviation"] == ""
    assert 0 < float(row["computed"]) < 0.5


@pytest.mark.parametrize(
    "experiment, params, grid",
    [
        ("diagonal", {"entries": [1e-5, [0, 1e-5], -1e-5]}, {"n": [3]}),
        ("qidn", {"target": [[1e-5, 0], [0, -1e-5]]}, {"k": [3]}),
    ],
    ids=["diagonal", "qidn"],
)
def test_sweep_of_a_small_multiple_of_a_unitary_gets_the_loop_law(tmp_path, experiment, params, grid):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg_path.write_text(json.dumps({"experiment": experiment, "params": params, "grid": grid}))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    (row,) = csv.DictReader(io.StringIO(out.read_text()))
    n_program = 3 if experiment == "diagonal" else 4
    assert float(row["paper_value"]) == zoo.loop_success(n_program, 3)
    assert float(row["deviation"]) <= 1e-9


def test_sample_qidn_reads_target_seed():
    def traces(params):
        payload = run_sample(ExperimentConfig("qidn", params=params, max_rounds=2, trials=10, seed=3))
        return [trace_to_dict(t) for t in payload["traces"]]

    assert traces({"target_seed": 7}) != traces({})
    assert traces({"target_seed": 7}) == traces({"target_seed": 7, "target": "haar"})


# ---------------------------------------------------------------------------
# numerical edges of config vectors; the processor size cap
# ---------------------------------------------------------------------------

# (experiment, a vector whose 2-norm underflows, the same direction in range)
UNDERFLOWING = [
    ("u1", {"psi": [1e-300, 1e-160]}, {"psi": [1e-300 / 1e-160, 1.0]}),
    ("u1", {"psi": [1e-200, 0]}, {"psi": [1.0, 0.0]}),
    ("diagonal", {"entries": [1e-160, 1e-160, 1e-160]}, {"entries": [1, 1, 1]}),
    ("diagonal", {"entries": [1e-200, 1e-200, 1e-200]}, {"entries": [1, 1, 1]}),
    ("u1", {"psi": [0, 2.225073858507e-311]}, {"psi": [0.0, 1.0]}),  # numpy's 1/m overflows for a subnormal m
    ("diagonal", {"entries": [5e-324, [0, 5e-324], 5e-324]}, {"entries": [1, [0, 1], 1]}),
]


@pytest.mark.parametrize("command", ["sweep", "sample"])
@pytest.mark.parametrize(
    "experiment, tiny, in_range",
    UNDERFLOWING,
    ids=["psi-norm-subnormal", "psi-norm-zero", "entries-1e-160", "entries-1e-200", "psi-subnormal", "entries-subnormal"],
)
def test_a_vector_whose_norm_underflows_runs_as_its_rescaled_direction(tmp_path, command, experiment, tiny, in_range):
    def output(params):
        config = {"experiment": experiment, "params": params}
        config.update({"grid": {"n": [1, 3]}} if command == "sweep" else {"max_rounds": 3, "trials": 20})
        assert _exit_code(tmp_path, command, config) == 0
        text = (tmp_path / "out").read_text()
        return text if command == "sweep" else {k: v for k, v in json.loads(text).items() if k != "config"}

    assert output(tiny) == output(in_range)


class _Built(Exception):
    """A zoo constructor ran."""


def _constructor_raises(monkeypatch, name):
    def build(*args):
        raise _Built(name)

    monkeypatch.setattr(zoo, name, build)


# (command, experiment, params at the largest size allowed, the key that sets
# the size, the zoo constructor): each case is also run with that key one past
# the cap of N*D = 1024 and at 2**70.
AT_THE_CAP = [
    ("sweep", "bz", {"n_program": 512}, "n_program", "cyclic_shift_processor"),
    ("sample", "bz", {"n_program": 512}, "n_program", "cyclic_shift_processor"),
    ("sample", "bz_haar", {"n_program": 512}, "n_program", "cyclic_shift_processor"),
    ("sweep", "b0", {"dim": 2, "n_program": 512}, "n_program", "amp_modifier_processor"),
    ("sweep", "b0", {"dim": 512, "n_program": 2}, "dim", "amp_modifier_processor"),
    ("sweep", "diagonal", {"dim": 32}, "dim", "qudit_diagonal_processor"),
    ("sample", "diagonal", {"dim": 32, "phases": [0.0] * 32}, "dim", "qudit_diagonal_processor"),
    ("sample", "qidn", {"n_dim": 10}, "n_dim", "qidN"),
    ("sweep", "qidn", {"n_dim": 10}, "n_dim", "qidN"),
]


def _sized_config(command, experiment, params):
    config = {"experiment": experiment, "params": params}
    return {**config, "grid": ONE_POINT[experiment]} if command == "sweep" else config


@pytest.mark.parametrize("command, experiment, params, key, constructor", AT_THE_CAP)
def test_the_largest_allowed_processor_reaches_its_constructor(
    tmp_path, monkeypatch, command, experiment, params, key, constructor
):
    _constructor_raises(monkeypatch, constructor)
    with pytest.raises(_Built):
        _exit_code(tmp_path, command, _sized_config(command, experiment, params))


@pytest.mark.parametrize("size", ["cap+1", "2**70"])
@pytest.mark.parametrize("command, experiment, params, key, constructor", AT_THE_CAP)
def test_a_processor_past_the_size_cap_is_usage_error(
    tmp_path, capsys, monkeypatch, command, experiment, params, key, constructor, size
):
    _constructor_raises(monkeypatch, constructor)
    value = 2**70 if size == "2**70" else params[key] + 1
    assert _exit_code(tmp_path, command, _sized_config(command, experiment, {**params, key: value})) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above 1024" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["sweep", "sample"])
@pytest.mark.parametrize("key", ["entries", "phases"])
def test_diagonal_values_past_the_size_cap_are_usage_error(tmp_path, capsys, monkeypatch, command, key):
    _constructor_raises(monkeypatch, "qudit_diagonal_processor")
    assert _exit_code(tmp_path, command, _sized_config(command, "diagonal", {key: [1.0] * 33})) == 2
    err = capsys.readouterr().err
    assert err == "error: 33 entries asks for a processor of size N*D = 1089, above 1024\n"


# ---------------------------------------------------------------------------
# exit code 1 outside verify
# ---------------------------------------------------------------------------

def test_sweep_deviation_above_tol_exits_1(tmp_path, capsys):
    # The exact walk reads this point 7.9e-14 off the loop law, above a 1e-15 tolerance.
    config = {"experiment": "qidn", "params": {"n_dim": 2, "target_seed": 7}, "grid": {"k": [24]}}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--tol", "1e-15"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("deviation ") and err.endswith(" above 1.0e-15 in qidn_loop_success (k=24)\n")
    assert len(out.read_text().splitlines()) == 2


def test_sample_outside_tolerance_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(loops, "exact_walk", lambda tree, n: 0.0)  # an exact value no trial frequency meets
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "x.json"
    cfg_path.write_text(json.dumps({"experiment": "u1", "max_rounds": 2, "trials": 50}))
    assert main(["sample", "--config", str(cfg_path), "--out", str(out), "--tol", "0.01"]) == 1
    assert capsys.readouterr().err == "empirical frequency outside the requested tolerance\n"
    assert json.loads(out.read_text())["summary"]["exact"] == 0.0


def test_reproduce_unflagged_deviation_exits_1(tmp_path, capsys, monkeypatch):
    rows = [
        cli.ResultRow("u1_probe", "alpha=0.3", 0.5, 0.75),
        cli.ResultRow("u1_flagged", "alpha=0.3", 0.5, 0.75, note="approx: a flagged row does not count"),
    ]
    monkeypatch.setitem(cli._TABLE_BUILDERS, "u1", lambda: rows)
    out = tmp_path / "u1.csv"
    assert main(["reproduce", "--table", "u1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "unflagged deviation 2.500e-01 in u1_probe (alpha=0.3)\n"
    assert len(out.read_text().splitlines()) == 3
