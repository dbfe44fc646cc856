"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. Monte Carlo checks use fixed seeds and 3-sigma bounds.
"""
import json

import numpy as np

from qproc import cli, loops, zoo
from qproc.cli import ExperimentConfig, run_sample
from qproc.loops import OutcomeTree, exact_success, run_trials
from qproc.processor import ProgramBasis, decompose, select_branch
from qproc.qlinalg import (
    dagger,
    phase_distance,
    random_state,
    random_unitary,
    su2_exp,
)
from qproc.streams import derive_stream, uniform_draws


def _report(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS - {text}")


def test_criterion_01_u1_half_probability_and_sampling():
    proc = zoo.u1_cnot()
    rng = derive_stream(1000)
    for _ in range(100):
        psi = random_state(2, rng)
        dec = decompose(proc, psi, zoo.u1_program(rng.uniform(0, 2 * np.pi)))
        assert abs(dec.by_label("0").probability - 0.5) <= 1e-12
    # 10^5-sample Monte Carlo at a fixed seed (criterion 10 companion)
    psi = np.array([0.6, 0.8])
    xi = zoo.u1_program(0.4)
    trials = 100_000
    mc = derive_stream(1001)
    zeros = sum(select_branch(decompose(proc, psi, xi), mc).label == "0" for _ in range(trials))
    sigma = np.sqrt(0.25 / trials)
    assert abs(zeros / trials - 0.5) <= 3 * sigma
    _report(1, f"success 1/2 exact over 100 cases; {trials} samples freq {zeros / trials:.5f}")


def test_criterion_02_u1_loop_closed_form():
    proc, rule = zoo.u1_cnot(), loops.u1_rule()
    target = zoo.u1_operator(0.3)
    assert abs(exact_success(proc, target, rule, 2) - 0.75) <= 1e-12
    for n in range(1, 21):
        assert abs(exact_success(proc, target, rule, n) - (1 - 0.5**n)) <= 1e-12
    _report(2, "two-round success 3/4 and 1-(1/2)^n for n <= 20")


def test_criterion_03_vmc3_success_and_erratum():
    proc = zoo.vmc3()
    rng = derive_stream(1002)
    basis = ProgramBasis.computational(4)
    for alpha in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
        psi = random_state(2, rng)
        dec = decompose(proc, psi, zoo.vmc3_program(alpha), basis)
        assert abs(sum(b.probability for b in dec.branches[:3]) - 0.75) <= 1e-9
        for j in range(3):
            assert phase_distance(2 * dec.branches[j].operator, zoo.u1_operator(alpha)) <= 1e-9
    # the published phase-ramp program fails the same branch check (erratum)
    alpha = 0.3
    ramp = decompose(proc, np.array([0.6, 0.8]), zoo.vmc3_phase_ramp_program(alpha), basis)
    worst = max(phase_distance(2 * ramp.branches[j].operator, zoo.u1_operator(alpha)) for j in range(3))
    assert worst > 0.1
    _report(3, f"3/4 success and U(alpha) branches on 64-point grid; phase-ramp deviates by {worst:.3f}")


def test_criterion_04_bz_averaged_success():
    z = np.sqrt(0.5)
    closed = zoo.geometric_success(z, 4, zoo.bz_norm2(z))
    assert abs(closed - 0.7) <= 1e-12
    # Monte Carlo over 10^4 Haar-random states (exact per-state probability)
    proc = zoo.cyclic_shift_processor(4)
    xi = zoo.geometric_program(z, 4)
    rng = derive_stream(1003)
    vals = []
    for _ in range(10_000):
        dec = decompose(proc, random_state(2, rng), xi)
        vals.append(sum(b.probability for b in dec.branches[:3]))
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    assert abs(mean - 0.7) <= 3 * sem
    # 10^5 sampled single-shot trials with a fresh Haar state per trial
    trials = 100_000
    cfg = ExperimentConfig(experiment="bz_haar", params={"z": z, "n_program": 4}, max_rounds=1, trials=trials, seed=77)
    summary = run_sample(cfg)["summary"]
    assert abs(summary["empirical"] - 0.7) <= 3 * np.sqrt(0.7 * 0.3 / trials)
    _report(4, f"averaged success 0.7 exact; Haar mean {mean:.5f}; {trials} trials freq {summary['empirical']:.5f}")


def test_criterion_05_bz_closed_form_oracle_and_limits():
    rng = derive_stream(1004)
    for _ in range(200):
        z = complex(rng.uniform(0.2, 1.8), rng.uniform(-0.9, 0.9))
        n = int(rng.integers(2, 9))
        psi = random_state(2, rng)
        dec = decompose(zoo.cyclic_shift_processor(n), psi, zoo.geometric_program(z, n))
        oracle = sum(b.probability for b in dec.branches[:-1])
        closed = zoo.geometric_success(z, n, zoo.bz_norm2(z, float(abs(psi[0]) ** 2)))
        assert abs(closed - oracle) <= 1e-10
    for n in (2, 5, 8):
        assert abs(zoo.geometric_success(1.0, n, zoo.bz_norm2(1.0, 0.3)) - (1 - 1 / n)) <= 1e-12
    alpha2 = 0.36
    for z in (0.5, 2.0):
        finite = zoo.geometric_success(z, 200, zoo.bz_norm2(z, alpha2))
        limit = zoo.geometric_limit(z, zoo.bz_norm2(z, alpha2))
        assert abs(finite - limit) <= 1e-6
    _report(5, "closed form = oracle on 200 random cases; 1-1/N at |z|=1; N=200 limits within 1e-6")


def test_criterion_06_qutrit_diagonal_loop():
    proc, rule = zoo.qudit_diagonal_processor(3), loops.diagonal_rule()
    target = np.diag(np.exp(1j * np.array([0.4, -0.9, 1.3])))
    dec = decompose(proc, np.ones(3) / np.sqrt(3), zoo.diagonal_program(np.diagonal(target)))
    assert abs(dec.by_label("0").probability - 1 / 3) <= 1e-12
    for n in range(1, 21):
        assert abs(exact_success(proc, target, rule, n) - (1 - (2 / 3) ** n)) <= 1e-12
    _report(6, "per-round 1/3 and 1-(2/3)^n for n <= 20")


def test_criterion_07_b0_qudit_processor():
    rng = derive_stream(1005)
    for dim in (2, 3, 5):
        for n in (3, 5):
            proc = zoo.amp_modifier_processor(dim, n)
            dec = decompose(proc, random_state(dim, rng), zoo.geometric_program(np.exp(0.9j), n))
            assert abs(sum(b.probability for b in dec.branches[:-1]) - (n - 1) / n) <= 1e-12
        for _ in range(20):
            z = complex(rng.uniform(0.3, 1.7), rng.uniform(-0.5, 0.5))
            n = int(rng.integers(2, 7))
            psi = random_state(dim, rng)
            dec = decompose(zoo.amp_modifier_processor(dim, n), psi, zoo.geometric_program(z, n))
            oracle = sum(b.probability for b in dec.branches[:-1])
            bnorm2 = float(np.linalg.norm(zoo.b0_operator(z, dim) @ psi) ** 2)
            closed = zoo.geometric_success(z, n, bnorm2)
            assert abs(closed - oracle) <= 1e-10
    _report(7, "(N-1)/N at |z|=1 for D in {2,3,5}; closed form = oracle")


def test_criterion_08_qid2_probabilities_and_loop():
    proc, rule, basis = zoo.qid2(), loops.qid2_rule(), zoo.qid2_basis()
    rng = derive_stream(1006)
    for _ in range(100):
        mu = rng.standard_normal(3) * 0.8
        dec = decompose(proc, random_state(2, rng), zoo.su2_program(mu), basis)
        assert np.abs(dec.probabilities() - 0.25).max() <= 1e-12
    target = su2_exp([0.2, -0.5, 0.9])
    assert abs(exact_success(proc, target, rule, 2) - 7 / 16) <= 1e-12
    for n in range(1, 41):
        assert abs(exact_success(proc, target, rule, n) - (1 - 0.75**n)) <= 1e-12
    failure30 = 1 - exact_success(proc, target, rule, 30)
    assert abs(failure30 - 1.785820901700763e-04) <= 1e-12
    assert 1e-5 < failure30 < 1e-3  # consistent with the quoted ~1e-4
    # 10^5 trajectory Monte Carlo of the two-round chain (criterion 10 companion)
    trials = 100_000
    psi = np.array([0.6, 0.8])
    tree = OutcomeTree(proc, target, rule, psi)
    # uniform_draws draws from the streams derive_stream(1007, t), t < trials, without per-trial seeding
    hits = sum(t.succeeded for n, draw in uniform_draws((1007,), range(trials)) for t in run_trials(tree, 2, n, draw))
    sigma = np.sqrt((7 / 16) * (9 / 16) / trials)
    assert abs(hits / trials - 7 / 16) <= 3 * sigma
    _report(8, f"outcomes 1/4; 7/16 and 1-(3/4)^n exact; failure(30) = {failure30:.3e}; {trials} traces freq {hits / trials:.5f}")


def test_criterion_09_qudit_distributor():
    for n in (2, 3, 4):
        net = zoo.qid_network(n)
        # basis action on every triple, exact
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    src = a * n * n + b * n + c
                    dst = ((a - b + c) % n) * n * n + ((b + a) % n) * n + ((c + a) % n)
                    col = net[:, src]
                    assert col[dst] == 1.0 and np.count_nonzero(col) == 1
        # operator-basis orthogonality and the conjugation phase relation
        for m1 in range(n):
            for k1 in range(n):
                u1 = zoo.weyl(m1, k1, n)
                for m2 in range(n):
                    for k2 in range(n):
                        u2 = zoo.weyl(m2, k2, n)
                        want = n if (m1, k1) == (m2, k2) else 0.0
                        assert abs(np.trace(dagger(u2) @ u1) - want) <= 1e-10
                        phase = np.exp(2j * np.pi * (m1 * k2 - k1 * m2) / n)
                        assert np.abs(dagger(u2) @ u1 @ u2 - phase * u1).max() <= 1e-10
        # covariance on every entangled program state
        psi = random_state(n, derive_stream(1008, n))
        for m in range(n):
            for k in range(n):
                xi = zoo.bell_state(m, k, n)
                out = net @ np.kron(psi, xi)
                assert np.linalg.norm(out - np.kron(zoo.weyl(m, k, n) @ psi, xi)) <= 1e-10
        # branch decomposition in the Phi basis vs the conjugation formula
        v = random_unitary(n, derive_stream(1009, n))
        dec = decompose(zoo.qidN(n), psi, zoo.program_for(v), zoo.phi_basis(n))
        for r in range(n):
            for s in range(n):
                branch = dec.by_label(f"{r},{s}")
                u = zoo.weyl(s, r, n)
                assert np.abs(branch.operator - u @ v @ dagger(u) / n).max() <= 1e-9
                assert abs(branch.probability - 1 / n**2) <= 1e-12
        # cumulative loop success
        rule = loops.qidN_rule()
        for k in (1, 5, 20):
            got = exact_success(zoo.qidN(n), v, rule, k)
            assert abs(got - (1 - (1 - 1 / n**2) ** k)) <= 1e-12
    # 10^5 single-round trajectories for N=2 (criterion 10 companion)
    trials = 100_000
    proc2, rule2 = zoo.qidN(2), loops.qidN_rule()
    v2 = random_unitary(2, derive_stream(1010))
    psi2 = np.ones(2) / np.sqrt(2)
    tree = OutcomeTree(proc2, v2, rule2, psi2)
    hits = sum(t.succeeded for n, draw in uniform_draws((1011,), range(trials)) for t in run_trials(tree, 1, n, draw))
    sigma = np.sqrt(0.25 * 0.75 / trials)
    assert abs(hits / trials - 0.25) <= 3 * sigma
    _report(9, f"all identities for N in {{2,3,4}}; p(K) exact; {trials} traces freq {hits / trials:.5f}")


def test_criterion_10_determinism(tmp_path):
    cfg = {"experiment": "qidn", "params": {"n_dim": 2}, "max_rounds": 1, "trials": 2000, "seed": 42}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["sample", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli.main(["sample", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    summary = json.loads(a.read_text())["summary"]
    assert abs(summary["empirical"] - summary["exact"]) <= summary["three_sigma"]
    _report(10, "cmd_sample byte-identical across runs; Monte Carlo checks ran in criteria 1, 4, 8, 9")
