"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench

They live outside tests/, so the tier-1 suite neither runs nor waits for them.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from workloads import HELDOUT, POOL, WORKLOADS, Command, all_variants, variant_for  # noqa: E402


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # root [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] overruns the
    # root and is clipped to [8, 10]; [1.5, 2.5] is a grandchild of [1, 3].
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    assert tracer.self_times(start, end, parent) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_leaf_is_its_duration():
    assert tracer.self_times([2.0], [2.5], [-1]) == pytest.approx([0.5])


# --- percentile rule ------------------------------------------------------------

@pytest.mark.parametrize(
    "n, want",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, want):
    assert stats.tail_percentile(n) == want


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert stats.percentile(range(101), 99) == pytest.approx(99.0)


# --- failure counting and the digest gate ---------------------------------------

def _session(tmp_path, golden):
    return run.Session(None, golden, "w", "0", tmp_path)


def _writer(payload: bytes, rc=0, exc=None):
    def main(argv):
        if exc is not None:
            raise exc
        Path(argv[argv.index("--out") + 1]).write_bytes(payload)
        return rc

    return main


def test_failures_are_counted_against_attempts(tmp_path):
    good = gate.digest_bytes(b"ok\n")
    golden = {"w": {"a": good, "b": good, "c": good, "d": good, "e": {"0": good}}}
    session = _session(tmp_path, golden)
    cmds = {
        "a": _writer(b"ok\n"),  # passes
        "b": _writer(b"ok\n", rc=1),  # non-zero exit
        "c": _writer(b"ok\n", exc=ValueError("boom")),  # raises
        "d": _writer(b"oK\n"),  # one byte differs
        "e": _writer(b"ok\n"),  # per-variant digest, passes
    }
    for cid, main in cmds.items():
        session.main = main
        cmd = Command(cid, "reproduce", None, (), f"{cid}.csv")
        session.run(session.prepare([cmd]))
    assert session.attempted == 5
    assert sorted(f.split(":")[0] for f in session.failures) == ["b", "c", "d"]


def test_command_without_recorded_digest_fails(tmp_path):
    session = _session(tmp_path, {"w": {}})
    session.main = _writer(b"x")
    session.run(session.prepare([Command("z", "reproduce", None, (), "z.csv")]))
    assert session.failures == ["z: no digest recorded"]


def test_negative_control_detects_one_flipped_byte(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"quantity,params\nx,1\n")
    expected = gate.digest_bytes(path.read_bytes())
    assert gate.negative_control(path, expected)
    # and the unmodified file passes the same check
    assert gate.check(gate.Outcome("x", 0, expected, 1, 0), expected) is None


# --- seeded inputs ---------------------------------------------------------------

def test_same_seed_gives_same_configs_and_seeds_fold_onto_the_pool():
    for wl in WORKLOADS.values():
        assert wl.commands("3") == wl.commands("3")
        assert wl.commands(variant_for(3)) == wl.commands(variant_for(3 + POOL))
    trial_workloads = [w for w in WORKLOADS.values() if w.unit == "trial"]
    for wl in trial_workloads:
        assert wl.commands("0") != wl.commands("1")
        assert wl.commands(HELDOUT) not in [wl.commands(str(v)) for v in range(POOL)]


def test_cut_commands_run_one_trial_or_one_point():
    for wl in WORKLOADS.values():
        for cmd in wl.setup_commands("0"):
            if cmd.sub == "sample":
                assert cmd.config["trials"] == 1 and "--tol" not in cmd.extra
            else:
                assert cmd.config["trials"] == 1
                assert all(len(v) == 1 for v in cmd.config["grid"].values())


def test_golden_covers_every_command_of_every_variant():
    golden = gate.load_golden()
    for wl in WORKLOADS.values():
        for variant in all_variants():
            for cmd in wl.setup_commands(variant) + wl.commands(variant):
                assert gate.expected_digest(golden, wl.name, variant, cmd.id), (wl.name, variant, cmd.id)


# --- benchmark definition ---------------------------------------------------------

def test_benchmark_json_matches_the_metrics_run_py_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.E2E_UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# --- tracer ----------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_uninstall_restores_them():
    import qproc
    from qproc import cli, loops, processor, zoo

    original = processor.decompose
    t = tracer.Tracer()
    t.install()
    try:
        assert set(t.bindings["processor.decompose"]) >= {
            "qproc.processor.decompose", "qproc.loops.decompose", "qproc.cli.decompose", "qproc.zoo.decompose"
        }
        assert {"qproc.streams.derive_stream", "qproc.cli.derive_stream", "qproc.derive_stream"} <= set(
            t.bindings["streams.derive_stream"]
        )
        assert loops.decompose is cli.decompose is zoo.decompose is not original
    finally:
        t.uninstall()
    assert processor.decompose is loops.decompose is cli.decompose is zoo.decompose is qproc.decompose is original


def test_traced_exact_success_counts_tree_nodes():
    import numpy as np
    from qproc import loops, zoo

    t = tracer.Tracer()
    t.install()
    try:
        t.batch = 1
        target = zoo.u1_operator(0.3)
        loops.exact_success(zoo.u1_cnot(), target, loops.u1_rule(), 5, psi=np.ones(2) / np.sqrt(2))
        t.batch = 2  # not counted
        loops.exact_success(zoo.u1_cnot(), target, loops.u1_rule(), 3)
    finally:
        t.uninstall()
    metrics, absent = tracer.per_layer(t, {1}, out_bytes=0, overhead=1.0)
    assert metrics["loops.exact_success.nodes"] == (5, "count")
    assert metrics["loops.exact_success.depth_sum"] == (5, "count")
    assert metrics["loops.exact_success.calls"] == (1, "count")
    assert metrics["loops.next_program.calls"] == (5, "count")
    assert any(a.startswith("loops.run_loop.p99_us") for a in absent)
    names = [t.labels[i] for i in t.label]
    for i, p in enumerate(t.parent):
        if names[i] == "loops.next_program":
            assert names[p] == "loops.exact_success"


# --- machine-speed gauge ------------------------------------------------------------

def test_gauge_scales_by_reference_time_around_the_measurement(monkeypatch):
    import reference

    readings = iter([0.002, 0.004, 0.012])
    monkeypatch.setattr(reference, "reference_seconds", lambda kind: next(readings))
    gauge = reference.Gauge("dense")
    ref = reference.REF_SECONDS["dense"]
    # loop took 0.002 s before and 0.004 s after: the machine ran at ref / 0.003
    assert gauge.scale(1.0) == pytest.approx(ref / 0.003)
    assert gauge.scale(2.0) == pytest.approx(2.0 * ref / 0.008)
