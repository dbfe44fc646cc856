"""Tests for correction rules, exact loop trees and Monte Carlo trajectories."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import loops, zoo
from qproc.loops import OutcomeTree, SingularProgram, exact_success, exact_walk, run_loop
from qproc.processor import DimensionMismatch, branch_operators, decompose
from qproc.qlinalg import (
    SIGMA_X,
    phase_distance,
    proportionality_scale,
    random_state,
    random_unitary,
    su2_exp,
)
from qproc.streams import derive_stream


class _FixedDraws:
    """Stand-in RNG producing a preset sequence of uniforms."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def _success_branch(proc, rule, program):
    basis = rule.basis_for(proc)
    ops = branch_operators(proc, program, basis)
    idx = next(i for i, lab in enumerate(basis.labels) if lab in rule.success_labels(proc))
    return ops[idx]


# ---------------------------------------------------------------------------
# u1 rule
# ---------------------------------------------------------------------------

def test_u1_rule_round_two_recovers_target():
    proc, rule = zoo.u1_cnot(), loops.u1_rule()
    alpha = 0.45
    target = zoo.u1_operator(alpha)
    fail = branch_operators(proc, rule.next_program(proc, target, np.eye(2)), rule.basis_for(proc))[1]
    retry = rule.next_program(proc, target, fail)
    assert abs(retry.params["alpha"] - 2 * alpha) <= 1e-12
    composite = _success_branch(proc, rule, retry) @ fail
    assert proportionality_scale(composite, target, tol=1e-12) is not None


def test_u1_rule_doubles_angle_each_failure():
    proc, rule = zoo.u1_cnot(), loops.u1_rule()
    alpha = 0.2
    target = zoo.u1_operator(alpha)
    residual = np.eye(2, dtype=complex)
    basis = rule.basis_for(proc)
    for k in range(4):
        program = rule.next_program(proc, target, residual)
        want = (2**k) * alpha
        got = (program.params["alpha"] + np.pi) % (2 * np.pi) - np.pi
        assert abs(got - want) <= 1e-12
        residual = branch_operators(proc, program, basis)[1] @ residual


def test_u1_rule_alpha_zero_any_outcome_succeeds():
    # alpha = 0: both outcomes apply I/sqrt(2), so every round leaves psi in
    # the target state and a failed round retries the same program.
    proc, rule = zoo.u1_cnot(), loops.u1_rule()
    tree = OutcomeTree(proc, np.eye(2), rule)
    psi = np.array([0.6, 0.8])
    for t in range(20):
        trace = run_loop(tree, psi, 60, derive_stream(400, t))
        assert trace.succeeded
        assert all(phase_distance(r.post_state, psi) <= 1e-12 for r in trace.rounds)


def test_u1_exact_three_rounds():
    got = exact_success(zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule(), 3)
    assert abs(got - 7 / 8) <= 1e-12


# ---------------------------------------------------------------------------
# bz rule
# ---------------------------------------------------------------------------

def test_bz_rule_first_failure_and_squared_parameter():
    proc, rule = zoo.cyclic_shift_processor(2), loops.bz_rule()
    z = 0.7 + 0.2j
    target = zoo.bz_operator(z)
    first = rule.next_program(proc, target, np.eye(2))
    basis = rule.basis_for(proc)
    fail = branch_operators(proc, first, basis)[1]
    # failed branch is c1|0><0| + c0|1><1|, proportional to B(1/z) scaled by z
    c0 = first.ket[0]
    assert np.abs(fail - c0 * np.diag([z, 1.0])).max() <= 1e-12
    retry = rule.next_program(proc, target, fail)
    assert abs(retry.params["z"] - z**2) <= 1e-12
    # B(z^2) B(1/z) is proportional to B(z)
    composite = _success_branch(proc, rule, retry) @ fail
    scale = proportionality_scale(composite, target, tol=1e-12)
    assert scale is not None and 0 < abs(scale) <= 1


def test_bz_rule_unit_z_reduces_to_identity_chain():
    proc, rule = zoo.cyclic_shift_processor(2), loops.bz_rule()
    target = zoo.bz_operator(1.0)
    residual = np.eye(2, dtype=complex)
    for _ in range(3):
        program = rule.next_program(proc, target, residual)
        assert abs(program.params["z"] - 1.0) <= 1e-12
        residual = branch_operators(proc, program, rule.basis_for(proc))[1] @ residual


def test_bz_exact_tree_vs_monte_carlo():
    # two-round tree, z = 0.8, uniform state; 10^6-sample Monte Carlo of the
    # same tree sampled round by round (the failure path is unique, so the
    # per-round success probabilities enumerate the whole tree)
    proc, rule = zoo.cyclic_shift_processor(2), loops.bz_rule()
    z = 0.8
    target = zoo.bz_operator(z)
    psi = np.ones(2) / np.sqrt(2)
    rounds = 2
    exact = exact_success(proc, target, rule, rounds, psi=psi)

    probs = []
    state, residual = psi, np.eye(2, dtype=complex)
    basis = rule.basis_for(proc)
    for _ in range(rounds):
        dec = decompose(proc, state, rule.next_program(proc, target, residual), basis)
        probs.append(dec.branches[0].probability)
        residual = dec.branches[1].operator @ residual
        state = dec.branches[1].post_state
    rng = derive_stream(401)
    trials = 1_000_000
    alive = np.ones(trials, dtype=bool)
    succeeded = np.zeros(trials, dtype=bool)
    for p in probs:
        wins = alive & (rng.random(trials) < p)
        succeeded |= wins
        alive &= ~wins
    empirical = succeeded.mean()
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert abs(empirical - exact) <= 3 * sigma


def test_bz_exact_tree_three_rounds_vs_monte_carlo():
    # z = 0.6 on the 2-dim program, psi = (0.6, 0.8), three rounds: full
    # trajectory sampling at 20k, then a 10^6-sample Monte Carlo of the
    # per-round success chain (the failure path is unique)
    proc, rule = zoo.cyclic_shift_processor(2), loops.bz_rule()
    target = zoo.bz_operator(0.6)
    psi = np.array([0.6, 0.8])
    rounds = 3
    exact = exact_success(proc, target, rule, rounds, psi=psi)

    trials = 20_000
    tree = OutcomeTree(proc, target, rule)
    hits = sum(run_loop(tree, psi, rounds, derive_stream(402, t)).succeeded for t in range(trials))
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert abs(hits / trials - exact) <= 3 * sigma

    probs = []
    state, residual = psi, np.eye(2, dtype=complex)
    basis = rule.basis_for(proc)
    for _ in range(rounds):
        dec = decompose(proc, state, rule.next_program(proc, target, residual), basis)
        probs.append(dec.branches[0].probability)
        residual = dec.branches[1].operator @ residual
        state = dec.branches[1].post_state
    rng = derive_stream(403)
    big = 1_000_000
    alive = np.ones(big, dtype=bool)
    succeeded = np.zeros(big, dtype=bool)
    for p in probs:
        wins = alive & (rng.random(big) < p)
        succeeded |= wins
        alive &= ~wins
    sigma = np.sqrt(exact * (1 - exact) / big)
    assert abs(succeeded.mean() - exact) <= 3 * sigma


def test_bz_loop_whose_corrected_ratio_leaves_the_float_range_keeps_its_one_shot_value():
    # z^64 at z = 1.5 is past geometric_program's range: the first failure is uncorrectable
    proc, rule, target = zoo.cyclic_shift_processor(64), loops.bz_rule(), zoo.bz_operator(1.5)
    tree = OutcomeTree(proc, target, rule, np.ones(2) / np.sqrt(2))
    assert tree.child(tree.root, 63).program is None
    one_shot = exact_walk(tree, 1)
    assert abs(one_shot - zoo.geometric_success(1.5, 64, zoo.bz_norm2(1.5, 0.5))) <= 1e-12
    assert all(exact_walk(tree, n) == one_shot for n in range(2, 9))


def test_bz_rule_keeps_a_callers_out_of_range_z_an_invalid_parameter():
    proc, rule = zoo.cyclic_shift_processor(64), loops.bz_rule()
    with pytest.raises(zoo.InvalidParameter):
        rule.next_program(proc, zoo.bz_operator(1e150), np.eye(2))


# ---------------------------------------------------------------------------
# diagonal rule
# ---------------------------------------------------------------------------

def test_diagonal_rule_qutrit_unitary_closed_form():
    proc, rule = zoo.qudit_diagonal_processor(3), loops.diagonal_rule()
    target = np.diag(np.exp(1j * np.array([0.2, -1.1, 0.7])))
    for n in (1, 5, 20):
        got = exact_success(proc, target, rule, n)
        assert abs(got - (1 - (2 / 3) ** n)) <= 1e-12


def test_diagonal_rule_identity_target_uniform_program():
    proc, rule = zoo.qudit_diagonal_processor(3), loops.diagonal_rule()
    program = rule.next_program(proc, np.eye(3), np.eye(3))
    ops = branch_operators(proc, program, rule.basis_for(proc))
    for op in ops:
        assert proportionality_scale(op, np.eye(3), tol=1e-12) is not None


def test_diagonal_rule_two_round_composite():
    # outcome 1 then outcome 0: the product of the two applied operators is
    # proportional to the target (explicit matrix multiplication)
    proc, rule = zoo.qudit_diagonal_processor(3), loops.diagonal_rule()
    target = np.diag([1.0, 0.6, 0.3 + 0.4j])
    basis = rule.basis_for(proc)
    first = rule.next_program(proc, target, np.eye(3))
    failed = branch_operators(proc, first, basis)[1]
    second = rule.next_program(proc, target, failed)
    composite = branch_operators(proc, second, basis)[0] @ failed
    scale = proportionality_scale(composite, target, tol=1e-9)
    assert scale is not None and 0 < abs(scale) <= 1


def test_diagonal_rule_singular_residual():
    rule = loops.diagonal_rule()
    proc = zoo.qudit_diagonal_processor(3)
    with pytest.raises(SingularProgram):
        rule.next_program(proc, np.eye(3), np.diag([0.0, 1.0, 1.0]))


def test_diagonal_loop_uncorrectable_status():
    # target with a vanishing entry: the failure branch applies a singular
    # operator and the loop must stop with the distinct status
    proc, rule = zoo.qudit_diagonal_processor(3), loops.diagonal_rule()
    target = np.diag([1.0, 1.0, 0.0]) / np.sqrt(2)
    psi = np.array([0.0, 1.0, 0.0])
    trace = run_loop(OutcomeTree(proc, target, rule), psi, 5, _FixedDraws([0.9, 0.0]))
    assert trace.status == "uncorrectable"
    assert not trace.succeeded
    assert trace.rounds[-1].outcome == "2"


# ---------------------------------------------------------------------------
# qid2 rule
# ---------------------------------------------------------------------------

def test_qid2_rule_encodes_conjugation_correction():
    # failure x then success: composite proportional to U within 1e-9
    proc, rule = zoo.qid2(), loops.qid2_rule()
    mu = np.array([0.2, -0.5, 0.9])
    target = su2_exp(mu)
    basis = rule.basis_for(proc)
    first = rule.next_program(proc, target, np.eye(2))
    fail_x = branch_operators(proc, first, basis)[2]  # "1+" applies sigma_x U sigma_x / 2
    second = rule.next_program(proc, target, fail_x)
    composite = branch_operators(proc, second, basis)[0] @ fail_x
    scale = proportionality_scale(composite, target, tol=1e-9)
    assert scale is not None and 0 < abs(scale) <= 1
    # the correction encodes U sigma_x U^dag sigma_x up to global phase
    want = target @ SIGMA_X @ np.conjugate(target).T @ SIGMA_X
    assert phase_distance(su2_exp(second.params["mu"]), want) <= 1e-9


def test_qid2_exact_success_closed_form():
    proc, rule = zoo.qid2(), loops.qid2_rule()
    target = su2_exp([0.2, -0.5, 0.9])
    assert abs(exact_success(proc, target, rule, 2) - 7 / 16) <= 1e-12
    for n in (10, 40):
        assert abs(exact_success(proc, target, rule, n) - (1 - 0.75**n)) <= 1e-12


# ---------------------------------------------------------------------------
# qidN rule
# ---------------------------------------------------------------------------

def test_qidn_rule_closed_forms():
    for n_dim, k in ((2, 2), (3, 10), (4, 8), (5, 20)):
        proc, rule = zoo.qidN(n_dim), loops.qidN_rule()
        target = random_unitary(n_dim, derive_stream(403, n_dim))
        got = exact_success(proc, target, rule, k)
        assert abs(got - (1 - (1 - 1 / n_dim**2) ** k)) <= 1e-12
    assert abs(exact_success(zoo.qidN(2), np.eye(2), loops.qidN_rule(), 2) - 7 / 16) <= 1e-12


def test_qidn_rule_identity_target_all_branches_identity():
    proc, rule = zoo.qidN(3), loops.qidN_rule()
    program = rule.next_program(proc, np.eye(3), np.eye(3))
    ops = branch_operators(proc, program, rule.basis_for(proc))
    for op in ops:
        assert proportionality_scale(op, np.eye(3), tol=1e-10) is not None


def test_qidn_rule_forced_failure_then_success():
    # forced outcome (1,2), then the corrected success branch: composite
    # proportional to the target (explicit operator products)
    n = 3
    proc, rule = zoo.qidN(n), loops.qidN_rule()
    target = random_unitary(n, derive_stream(404))
    basis = rule.basis_for(proc)
    first = rule.next_program(proc, target, np.eye(n))
    ops = branch_operators(proc, first, basis)
    fail_idx = list(basis.labels).index("1,2")
    failed = ops[fail_idx]
    second = rule.next_program(proc, target, failed)
    composite = branch_operators(proc, second, basis)[0] @ failed
    scale = proportionality_scale(composite, target, tol=1e-9)
    assert scale is not None and 0 < abs(scale) <= 1


# ---------------------------------------------------------------------------
# exact_success semantics
# ---------------------------------------------------------------------------

def test_exact_success_single_round_equals_decompose():
    proc, rule = zoo.qid2(), loops.qid2_rule()
    target = su2_exp([0.4, 0.0, -0.3])
    got = exact_success(proc, target, rule, 1)
    assert abs(got - 0.25) <= 1e-12


def test_exact_success_collapse_matches_full_enumeration(monkeypatch):
    # the representative-child collapse must agree with brute-force
    # enumeration of every failure branch
    cases = [
        (zoo.qid2(), loops.qid2_rule(), su2_exp([0.2, -0.5, 0.9]), 4, None),
        (zoo.qidN(2), loops.qidN_rule(), random_unitary(2, derive_stream(405)), 4, None),
        (zoo.qidN(3), loops.qidN_rule(), random_unitary(3, derive_stream(406)), 3, None),
        (
            zoo.qudit_diagonal_processor(3),
            loops.diagonal_rule(),
            np.diag(np.exp(1j * np.array([0.3, 1.2, -0.4]))),
            5,
            None,
        ),
        (zoo.cyclic_shift_processor(4), loops.bz_rule(), zoo.bz_operator(0.7), 4, np.array([0.6, 0.8])),
        (zoo.cyclic_shift_processor(3), loops.bz_rule(), zoo.bz_operator(1.6j), 4, np.array([0.8, 0.6j])),
        (
            zoo.qudit_diagonal_processor(3),
            loops.diagonal_rule(),
            np.diag([0.5, 1.3 * np.exp(0.4j), 0.9 * np.exp(-1.1j)]),
            4,
            np.array([0.6, 0.0, 0.8]),
        ),
    ]
    for proc, rule, target, n, psi in cases:
        collapsed = exact_success(proc, target, rule, n, psi=psi)
        monkeypatch.setattr(loops, "_state_independent", lambda ops, probs: False)
        full = exact_success(proc, target, rule, n, psi=psi)
        monkeypatch.undo()
        assert abs(collapsed - full) <= 1e-12


angles = st.floats(-np.pi, np.pi)


@st.composite
def unitary_loops(draw):
    """(proc, rule, target) with a random unitary target for u1, diagonal, qid2 or qidN."""
    family = draw(st.sampled_from(("u1", "diagonal", "qid2", "qidN")))
    if family == "u1":
        return zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(draw(angles))
    if family == "diagonal":
        dim = draw(st.integers(2, 5))
        phases = np.array(draw(st.lists(angles, min_size=dim, max_size=dim)))
        return zoo.qudit_diagonal_processor(dim), loops.diagonal_rule(), np.diag(np.exp(1j * phases))
    if family == "qid2":
        return zoo.qid2(), loops.qid2_rule(), su2_exp(draw(st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=3)))
    n = draw(st.integers(2, 3))
    return zoo.qidN(n), loops.qidN_rule(), random_unitary(n, derive_stream(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=100)
@given(case=unitary_loops(), n=st.integers(1, 6))
def test_exact_success_is_the_loop_law(case, n):
    # One law for every unitary loop: 1 - (1 - 1/N)^n, N the program dimension.
    proc, rule, target = case
    collapsed = exact_success(proc, target, rule, n)
    assert abs(collapsed - zoo.loop_success(proc.program_dim, n)) <= 1e-12
    if n <= 4:
        with mock.patch.object(loops, "_state_independent", lambda ops, probs: False):
            assert abs(exact_success(proc, target, rule, n) - collapsed) <= 1e-12


moduli = st.floats(0.2, 3.0).filter(lambda r: abs(r - 1.0) > 1e-3)


@st.composite
def non_unitary_loops(draw):
    """(proc, rule, target, psi): bz with |z| != 1, or a diagonal target with an entry off the unit circle."""
    psi_seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.sampled_from(("bz", "diagonal"))) == "bz":
        z = draw(moduli) * np.exp(1j * draw(angles))
        proc, rule, target = zoo.cyclic_shift_processor(draw(st.integers(2, 4))), loops.bz_rule(), zoo.bz_operator(z)
    else:
        dim = draw(st.integers(2, 4))
        radii = [draw(moduli)] + draw(st.lists(st.floats(0.2, 3.0), min_size=dim - 1, max_size=dim - 1))
        entries = np.array(radii) * np.exp(1j * np.array(draw(st.lists(angles, min_size=dim, max_size=dim))))
        proc, rule, target = zoo.qudit_diagonal_processor(dim), loops.diagonal_rule(), np.diag(entries)
    return proc, rule, target, random_state(proc.data_dim, derive_stream(psi_seed))


@settings(max_examples=100)
@given(case=non_unitary_loops(), n=st.integers(1, 4))
def test_exact_success_collapse_matches_full_enumeration_off_the_unit_circle(case, n):
    # Non-unitary branch operators make outcome probabilities state-dependent,
    # so the collapse must not fire on them and change the sum.
    proc, rule, target, psi = case
    collapsed = exact_success(proc, target, rule, n, psi=psi)
    with mock.patch.object(loops, "_state_independent", lambda ops, probs: False):
        full = exact_success(proc, target, rule, n, psi=psi)
    assert abs(collapsed - full) <= 1e-12


def _recursive_exact_success(proc, target, rule, n, psi) -> float:
    """Reference for exact_success: the walk as plain recursion, same expressions in the same order."""
    tree = OutcomeTree(proc, target, rule)
    success_idx = [i for i, lab in enumerate(tree.basis.labels) if lab in tree.success]
    fail_idx = [i for i, lab in enumerate(tree.basis.labels) if lab not in tree.success]

    def visit(node, state, remaining):
        if node.program is None:
            return 0.0
        amps = np.einsum("bij,j->bi", node.ops, state)
        probs = np.einsum("bi,bi->b", np.conjugate(amps), amps).real
        s = float(probs[success_idx].sum())
        if remaining == 1:
            return s
        fails = [i for i in fail_idx if probs[i] > loops._PRUNE]
        if not fails:
            return s

        def child(i):
            return visit(tree.node(loops._rescaled(node.ops[i] @ node.residual)), amps[i] / np.sqrt(probs[i]), remaining - 1)

        if loops._state_independent(node.ops, probs):
            return s + (1.0 - s) * child(fails[0])
        total = s
        for i in fails:
            total += probs[i] * child(i)
        return total

    return float(visit(tree.root, np.asarray(psi, dtype=complex), n))


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(unitary_loops(), non_unitary_loops()), n=st.integers(1, 7), psi_seed=st.integers(0, 2**32 - 1))
def test_exact_success_equals_the_recursive_walk_bit_for_bit(case, n, psi_seed):
    proc, rule, target = case[:3]
    psi = case[3] if len(case) == 4 else random_state(proc.data_dim, derive_stream(psi_seed))
    if len(case) == 4:  # non-unitary: branch by branch
        n = min(n, 4)
    assert exact_success(proc, target, rule, n, psi=psi) == _recursive_exact_success(proc, target, rule, n, psi)


def test_exact_success_validates_rounds():
    with pytest.raises(ValueError):
        exact_success(zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule(), 0)


# ---------------------------------------------------------------------------
# run_loop
# ---------------------------------------------------------------------------

def test_run_loop_single_round_qid2_frequency():
    proc, rule = zoo.qid2(), loops.qid2_rule()
    target = su2_exp([0.2, -0.5, 0.9])
    psi = np.array([0.6, 0.8])
    tree = OutcomeTree(proc, target, rule)
    trials = 10000
    hits = sum(run_loop(tree, psi, 1, derive_stream(407, t)).succeeded for t in range(trials))
    sigma = np.sqrt(0.25 * 0.75 / trials)
    assert abs(hits / trials - 0.25) <= 3 * sigma


def test_run_loop_success_post_state():
    proc, rule = zoo.qid2(), loops.qid2_rule()
    mu = np.array([0.7, 0.1, -0.4])
    target = su2_exp(mu)
    rng = derive_stream(408)
    tree = OutcomeTree(proc, target, rule)
    for _ in range(25):
        psi = random_state(2, rng)
        trace = run_loop(tree, psi, 60, rng)
        assert trace.succeeded
        want = target @ psi
        assert phase_distance(trace.rounds[-1].post_state, want / np.linalg.norm(want)) <= 1e-8


def test_run_loop_trace_shape():
    proc, rule = zoo.u1_cnot(), loops.u1_rule()
    max_rounds = 7
    tree = OutcomeTree(proc, zoo.u1_operator(0.5), rule)
    success = rule.success_labels(proc)
    for t in range(30):
        trace = run_loop(tree, np.array([0.6, 0.8]), max_rounds, derive_stream(409, t))
        assert trace.rounds_used <= max_rounds
        if trace.succeeded:
            assert trace.rounds[-1].outcome in success
            assert all(r.outcome not in success for r in trace.rounds[:-1])
        else:
            assert trace.rounds_used == max_rounds


def test_run_loop_rounds_to_success_geometric():
    # per-round success 1/9 for the N=3 distributor: the rounds-used
    # distribution is geometric with ratio 8/9
    n = 3
    proc, rule = zoo.qidN(n), loops.qidN_rule()
    target = random_unitary(n, derive_stream(410))
    psi = np.ones(n) / np.sqrt(n)
    tree = OutcomeTree(proc, target, rule)
    trials = 4000
    counts = np.zeros(4)
    for t in range(trials):
        trace = run_loop(tree, psi, 60, derive_stream(411, t))
        if trace.succeeded and trace.rounds_used <= 3:
            counts[trace.rounds_used] += 1
    p = 1 / n**2
    for k in (1, 2, 3):
        want = (1 - p) ** (k - 1) * p
        sigma = np.sqrt(want * (1 - want) / trials)
        assert abs(counts[k] / trials - want) <= 3 * sigma


def test_loop_policy_validation():
    # the round budget is run_loop's max_rounds; it must be at least 1
    tree = OutcomeTree(zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule())
    with pytest.raises(ValueError):
        run_loop(tree, np.array([1.0, 0.0]), 0, derive_stream(1))


def _decompose_u1(psi):
    decompose(zoo.u1_cnot(), psi, zoo.u1_program(0.3))


def _tree_with_state(psi):
    OutcomeTree(zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule(), psi)


def _run_loop_on(psi):
    run_loop(OutcomeTree(zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule()), psi, 1, derive_stream(2))


@pytest.mark.parametrize("call", [_decompose_u1, _tree_with_state, _run_loop_on], ids=["decompose", "tree", "run_loop"])
@pytest.mark.parametrize(
    "psi, error",
    [
        (np.ones(3) / np.sqrt(3), DimensionMismatch),
        (np.array([1.0, 1.0]), ValueError),
        (np.array([np.nan, 1.0]), ValueError),
        (np.array([np.inf, 0.0]), ValueError),
    ],
    ids=["wrong-dimension", "unnormalized", "nan", "inf"],
)
def test_every_data_state_gets_the_one_check(call, psi, error):
    """decompose, a tree built with a state and run_loop share processor.data_state."""
    with pytest.raises(error, match="data state"):
        call(psi)


def test_correction_soundness_all_families():
    # every failure outcome: (next success branch) o (failed branch) is
    # proportional to the target with |scale| in (0, 1]
    rng = derive_stream(412)
    cases = [
        (zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(1.1)),
        (zoo.cyclic_shift_processor(3), loops.bz_rule(), zoo.bz_operator(0.6 + 0.3j)),
        (zoo.qudit_diagonal_processor(4), loops.diagonal_rule(), np.diag([1.0, 0.8, 0.5 + 0.2j, 0.9])),
        (zoo.qid2(), loops.qid2_rule(), random_unitary(2, rng)),
        (zoo.qidN(3), loops.qidN_rule(), random_unitary(3, rng)),
    ]
    for proc, rule, target in cases:
        basis = rule.basis_for(proc)
        success = rule.success_labels(proc)
        first = rule.next_program(proc, target, np.eye(proc.data_dim))
        ops = branch_operators(proc, first, basis)
        sidx = next(i for i, lab in enumerate(basis.labels) if lab in success)
        for idx, lab in enumerate(basis.labels):
            if lab in success or np.linalg.norm(ops[idx]) < 1e-12:
                continue
            corrected = rule.next_program(proc, target, ops[idx])
            composite = branch_operators(proc, corrected, basis)[sidx] @ ops[idx]
            scale = proportionality_scale(composite, target, tol=1e-9)
            assert scale is not None and 0 < abs(scale) <= 1 + 1e-12, f"{proc.label}: outcome {lab}"
