"""Tests for the concrete constructions, program encoders and closed forms."""
import numpy as np
import pytest

from qproc import zoo
from qproc.processor import ProgramBasis, ProgramState, decompose, branch_operators
from qproc.qlinalg import (
    PAULIS,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    is_unitary,
    phase_distance,
    proportionality_scale,
    random_state,
    random_unitary,
    su2_exp,
)
from qproc.streams import derive_stream

_ALPHA_GRID = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)


def test_every_constructor_passes_completeness():
    procs = [
        zoo.u1_cnot(),
        zoo.vmc3(),
        zoo.cyclic_shift_processor(2),
        zoo.cyclic_shift_processor(7),
        zoo.qudit_diagonal_processor(2),
        zoo.qudit_diagonal_processor(5),
        zoo.amp_modifier_processor(2, 3),
        zoo.amp_modifier_processor(5, 4),
        zoo.qid2(),
        zoo.qidN(2),
        zoo.qidN(4),
    ]
    for proc in procs:
        assert is_unitary(proc.global_unitary(), 1e-9), proc.label


# ---------------------------------------------------------------------------
# u1_cnot
# ---------------------------------------------------------------------------

def test_u1_branches_on_alpha_grid():
    proc = zoo.u1_cnot()
    for alpha in _ALPHA_GRID:
        ops = branch_operators(proc, zoo.u1_program(alpha), ProgramBasis.computational(2))
        scaled = np.sqrt(2) * ops[0]
        assert is_unitary(scaled, 1e-10)
        assert np.abs(scaled - np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])).max() <= 1e-12
        assert np.abs(np.sqrt(2) * ops[1] - zoo.u1_operator(-alpha)).max() <= 1e-12


def test_u1_alpha_zero_branches_proportional_to_identity():
    ops = branch_operators(zoo.u1_cnot(), zoo.u1_program(0.0), ProgramBasis.computational(2))
    for op in ops:
        assert proportionality_scale(op, np.eye(2), tol=1e-12) is not None


def test_u1_program_rejects_a_nan_angle():
    with pytest.raises(ValueError):
        zoo.u1_program(np.nan)


def test_u1_failure_then_doubled_angle_recovers_target():
    # U(2 alpha) U(-alpha) = U(alpha)
    proc = zoo.u1_cnot()
    alpha = 0.37
    basis = ProgramBasis.computational(2)
    fail = branch_operators(proc, zoo.u1_program(alpha), basis)[1]
    retry = branch_operators(proc, zoo.u1_program(2 * alpha), basis)[0]
    scale = proportionality_scale(retry @ fail, zoo.u1_operator(alpha), tol=1e-12)
    assert scale is not None and abs(abs(scale) - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# vmc3
# ---------------------------------------------------------------------------

def _vmc3_circuit_blocks():
    """Brute-force oracle: simulate CNOT then Toffoli on all 8 basis states.

    Joint index 4*d + 2*a + b for data d and program qubits (a, b); the
    circuit maps |d,a,b> -> |d, a^d, b ^ (d & (a^d))>.
    """
    g = np.zeros((8, 8), dtype=complex)
    for idx in range(8):
        d, a, b = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        a2 = a ^ d
        b2 = b ^ (d & a2)
        g[(d << 2) | (a2 << 1) | b2, idx] = 1.0
    return g.reshape(2, 4, 2, 4).transpose(1, 3, 0, 2)


def test_vmc3_blocks_match_circuit_oracle():
    assert np.array_equal(zoo.vmc3().blocks, _vmc3_circuit_blocks())


def test_vmc3_branch_operators_alpha_03():
    alpha = 0.3
    ops = branch_operators(zoo.vmc3(), zoo.vmc3_program(alpha), ProgramBasis.computational(4))
    u = zoo.u1_operator(alpha)
    want = [np.exp(2j * alpha) * u / 2, np.exp(-2j * alpha) * u / 2, u / 2, zoo.u1_operator(-3 * alpha) / 2]
    for got, expect in zip(ops, want):
        assert np.abs(got - expect).max() <= 1e-12


def test_vmc3_success_three_quarters_and_branches():
    proc = zoo.vmc3()
    rng = derive_stream(300)
    for alpha in _ALPHA_GRID:
        psi = random_state(2, rng)
        dec = decompose(proc, psi, zoo.vmc3_program(alpha))
        assert abs(sum(b.probability for b in dec.branches[:3]) - 0.75) <= 1e-12
        for j in range(3):
            assert phase_distance(2 * dec.branches[j].operator, zoo.u1_operator(alpha)) <= 1e-9


def test_vmc3_alpha_zero_all_branches_identity():
    ops = branch_operators(zoo.vmc3(), zoo.vmc3_program(0.0), ProgramBasis.computational(4))
    for op in ops:
        assert proportionality_scale(op, np.eye(2), tol=1e-12) is not None


def test_vmc3_phase_ramp_program_fails_proportionality():
    # the published single-formula phases swap two amplitudes: success
    # probability is still 3/4 but the success branches realize U(2 alpha),
    # not U(alpha) -- this documents the erratum
    proc = zoo.vmc3()
    alpha = 0.3
    dec = decompose(proc, np.array([0.6, 0.8]), zoo.vmc3_phase_ramp_program(alpha))
    assert abs(sum(b.probability for b in dec.branches[:3]) - 0.75) <= 1e-12
    worst = max(
        phase_distance(2 * dec.branches[j].operator, zoo.u1_operator(alpha)) for j in range(3)
    )
    assert worst > 0.1
    assert phase_distance(2 * dec.branches[0].operator, zoo.u1_operator(2 * alpha)) <= 1e-12


# ---------------------------------------------------------------------------
# cyclic shift / B(z)
# ---------------------------------------------------------------------------

def test_geometric_program_normalization():
    xi = zoo.geometric_program(0.5, 4)
    c0 = np.sqrt((1 - 0.25) / (1 - 0.25**4))
    assert np.allclose(xi.ket, c0 * 0.5 ** np.arange(4), atol=1e-12)
    # |z| = 1 handled by the analytic limit |c0|^2 = 1/N
    xi = zoo.geometric_program(np.exp(0.3j), 5)
    assert abs(abs(xi.ket[0]) - 1 / np.sqrt(5)) <= 1e-12


def test_geometric_program_rejects_zero():
    with pytest.raises(zoo.InvalidParameter):
        zoo.geometric_program(0.0, 4)


def test_bz_branches_proportional_to_target():
    z, n = 0.8 + 0.4j, 5
    proc = zoo.cyclic_shift_processor(n)
    ops = branch_operators(proc, zoo.geometric_program(z, n), ProgramBasis.computational(n))
    c0 = abs(ops[0][0, 0])
    for j in range(n - 1):
        assert np.abs(ops[j] - c0 * z**j * zoo.bz_operator(z)).max() <= 1e-12
    assert np.abs(ops[n - 1] - c0 * np.diag([z ** (n - 1), 1.0])).max() <= 1e-12


def test_bz_averaged_success_is_point_seven():
    assert abs(zoo.geometric_success(np.sqrt(0.5), 4, zoo.bz_norm2(np.sqrt(0.5))) - 0.7) <= 1e-12


def test_bz_unit_z_success_for_any_state():
    # B(1) = I; success probability (N-1)/N independent of psi
    rng = derive_stream(301)
    for n in (2, 4, 6):
        proc = zoo.cyclic_shift_processor(n)
        xi = zoo.geometric_program(1.0, n)
        for _ in range(5):
            dec = decompose(proc, random_state(2, rng), xi)
            assert abs(sum(b.probability for b in dec.branches[:-1]) - (n - 1) / n) <= 1e-12


def test_bz_big_z_specific_value():
    # N=3, z=2, psi=(|0>+|1>)/sqrt(2): decompose branch sum as oracle
    z, n = 2.0, 3
    psi = np.ones(2) / np.sqrt(2)
    dec = decompose(zoo.cyclic_shift_processor(n), psi, zoo.geometric_program(z, n))
    oracle = sum(b.probability for b in dec.branches[:2])
    formula = (1 - abs(z) ** 4) / (1 - abs(z) ** 6) * (0.5 + abs(z) ** 2 * 0.5)
    assert abs(oracle - formula) <= 1e-12


def test_bz_closed_form_vs_oracle_random():
    rng = derive_stream(302)
    for _ in range(100):
        z = complex(rng.uniform(0.2, 1.8), rng.uniform(-0.8, 0.8))
        n = int(rng.integers(2, 9))
        psi = random_state(2, rng)
        dec = decompose(zoo.cyclic_shift_processor(n), psi, zoo.geometric_program(z, n))
        oracle = sum(b.probability for b in dec.branches[:-1])
        closed = zoo.geometric_success(z, n, zoo.bz_norm2(z, float(abs(psi[0]) ** 2)))
        assert abs(oracle - closed) <= 1e-10


# ---------------------------------------------------------------------------
# qudit diagonal processor
# ---------------------------------------------------------------------------

def test_qutrit_uniform_program_identity_branches():
    proc = zoo.qudit_diagonal_processor(3)
    xi = zoo.diagonal_program(np.ones(3))
    dec = decompose(proc, random_state(3, derive_stream(303)), xi)
    for b in dec.branches:
        assert abs(b.probability - 1 / 3) <= 1e-12
        assert proportionality_scale(b.operator, np.eye(3), tol=1e-12) is not None


def test_qutrit_basis_ket_program_is_degenerate():
    # program |0> encodes diag(1, 0, 0): every branch is a rank-1 projector;
    # on data |0> only outcome 0 survives and acts as the identity does
    proc = zoo.qudit_diagonal_processor(3)
    xi = ProgramState(ket=np.array([1.0, 0, 0]), encoding="diagonal")
    psi = np.array([1.0, 0, 0])
    dec = decompose(proc, psi, xi)
    assert abs(dec.branches[0].probability - 1.0) <= 1e-12
    assert np.allclose(dec.branches[0].post_state, psi, atol=1e-12)


def test_qutrit_shifted_diagonal_branch():
    c = np.array([0.8, 0.36 + 0.48j, 0.2 - 0.1j])
    c = c / np.linalg.norm(c)
    proc = zoo.qudit_diagonal_processor(3)
    dec = decompose(proc, np.ones(3) / np.sqrt(3), zoo.diagonal_program(c))
    assert np.abs(dec.branches[1].operator - np.diag([c[1], c[2], c[0]])).max() <= 1e-12


# ---------------------------------------------------------------------------
# amplitude modifier B0(z)
# ---------------------------------------------------------------------------

def test_b0_unit_modulus_success():
    rng = derive_stream(304)
    for dim in (2, 3, 5):
        for n in (3, 5):
            proc = zoo.amp_modifier_processor(dim, n)
            xi = zoo.geometric_program(np.exp(0.4j), n)
            dec = decompose(proc, random_state(dim, rng), xi)
            assert abs(sum(b.probability for b in dec.branches[:-1]) - (n - 1) / n) <= 1e-12


def test_b0_z_one_is_identity():
    assert np.array_equal(zoo.b0_operator(1.0, 4), np.eye(4))
    ops = branch_operators(
        zoo.amp_modifier_processor(3, 3), zoo.geometric_program(1.0, 3), ProgramBasis.computational(3)
    )
    for op in ops[:-1]:
        assert proportionality_scale(op, np.eye(3), tol=1e-12) is not None


def test_b0_closed_form_vs_oracle():
    z, dim, n = 0.7, 3, 4
    psi = np.ones(3) / np.sqrt(3)
    dec = decompose(zoo.amp_modifier_processor(dim, n), psi, zoo.geometric_program(z, n))
    oracle = sum(b.probability for b in dec.branches[:-1])
    bnorm2 = float(np.linalg.norm(zoo.b0_operator(z, dim) @ psi) ** 2)
    closed = zoo.geometric_success(z, n, bnorm2)
    assert abs(oracle - closed) <= 1e-10


# ---------------------------------------------------------------------------
# qubit distributor (qid2)
# ---------------------------------------------------------------------------

def test_qid2_unitary_program_equal_probabilities():
    proc, basis = zoo.qid2(), zoo.qid2_basis()
    rng = derive_stream(305)
    for _ in range(20):
        mu = rng.uniform(-1.5, 1.5, size=3)
        dec = decompose(proc, random_state(2, rng), zoo.su2_program(mu), basis)
        assert np.abs(dec.probabilities() - 0.25).max() <= 1e-12


def test_qid2_zero_mu_identity_branches():
    ops = branch_operators(zoo.qid2(), zoo.su2_program([0, 0, 0]), zoo.qid2_basis())
    for op in ops:
        assert proportionality_scale(op, np.eye(2), tol=1e-12) is not None


def test_qid2_z_rotation_branches():
    alpha = 0.6
    ops = branch_operators(zoo.qid2(), zoo.su2_program([0, 0, alpha]), zoo.qid2_basis())
    assert np.abs(2 * ops[0] - zoo.u1_operator(alpha)).max() <= 1e-12   # 0+
    assert np.abs(2 * ops[2] - zoo.u1_operator(-alpha)).max() <= 1e-12  # 1+


def test_qid2_branches_are_sigma_conjugations():
    # branch operators equal sigma_j U sigma_j / 2; the "1-" branch carries a
    # global -1 with the plain |1>|-> phase convention, so compare phase-blind
    proc, basis = zoo.qid2(), zoo.qid2_basis()
    mu = np.array([0.2, -0.5, 0.9])
    u = su2_exp(mu)
    ops = branch_operators(proc, zoo.su2_program(mu), basis)
    outcome_sigma = {"0+": SIGMA_0, "0-": SIGMA_Z, "1+": SIGMA_X, "1-": SIGMA_Y}
    for idx, label in enumerate(basis.labels):
        sig = outcome_sigma[label]
        assert phase_distance(ops[idx], sig @ u @ sig / 2) <= 1e-12
        if label != "1-":
            assert np.abs(ops[idx] - sig @ u @ sig / 2).max() <= 1e-12


def test_sigma_conjugation_identity():
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            if j != k:
                assert np.abs(PAULIS[j] @ PAULIS[k] @ PAULIS[j] + PAULIS[k]).max() == 0


# ---------------------------------------------------------------------------
# conditional shifts and the qudit distributor
# ---------------------------------------------------------------------------

def test_conditional_shift_n2_is_cnot():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.array_equal(zoo.conditional_shift(2, +1), cnot)


def test_conditional_shift_unitary_and_opposite_directions():
    d = zoo.conditional_shift(3, +1)
    ddag = zoo.conditional_shift(3, -1)
    assert np.allclose(dagger(d) @ d, np.eye(9), atol=1e-15)
    assert np.array_equal(dagger(d), ddag)
    # D|1>|1> = |1>|2>; D^dag|1>|1> = |1>|0>
    v11 = np.zeros(9)
    v11[4] = 1.0
    assert np.argmax(np.abs(d @ v11)) == 5
    assert np.argmax(np.abs(ddag @ v11)) == 3


def test_distributor_network_basis_action():
    # |n>|m>|k> -> |(n-m+k)>|(m+n)>|(k+n)> mod N, on every basis triple
    for n in (2, 3):
        net = zoo.qid_network(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    src = a * n * n + b * n + c
                    dst = ((a - b + c) % n) * n * n + ((b + a) % n) * n + ((c + a) % n)
                    col = net[:, src]
                    assert col[dst] == 1.0 and np.count_nonzero(col) == 1


def _three_qudit_shift(n, control, target, sign):
    """Conditional shift between two of three qudits, as an N^3 x N^3 matrix."""
    op = np.zeros((n**3, n**3), dtype=complex)
    for idx in range(n**3):
        digits = [(idx // n**2) % n, (idx // n) % n, idx % n]
        digits[target] = (digits[target] + sign * digits[control]) % n
        op[digits[0] * n**2 + digits[1] * n + digits[2], idx] = 1.0
    return op


@pytest.mark.parametrize("n", [2, 3, 4])
def test_distributor_network_is_the_circuit_product(n):
    # D_31 D_21^dag D_13 D_12, multiplied out as dense matrices
    d12 = _three_qudit_shift(n, control=0, target=1, sign=+1)
    d13 = _three_qudit_shift(n, control=0, target=2, sign=+1)
    d21d = _three_qudit_shift(n, control=1, target=0, sign=-1)
    d31 = _three_qudit_shift(n, control=2, target=0, sign=+1)
    assert np.array_equal(zoo.qid_network(n), d31 @ d21d @ d13 @ d12)


def test_distributor_covariance():
    for n in (2, 3):
        net = zoo.qid_network(n)
        psi = random_state(n, derive_stream(306, n))
        for m in range(n):
            for k in range(n):
                xi = zoo.bell_state(m, k, n)
                out = net @ np.kron(psi, xi)
                want = np.kron(zoo.weyl(m, k, n) @ psi, xi)
                assert np.linalg.norm(out - want) <= 1e-12


def test_weyl_trivial_cases():
    assert np.array_equal(zoo.weyl(0, 0, 3), np.eye(3))
    xi00 = zoo.bell_state(0, 0, 3)
    want = sum(np.kron(np.eye(3)[k], np.eye(3)[k]) for k in range(3)) / np.sqrt(3)
    assert np.allclose(xi00, want, atol=1e-15)


def test_weyl_orthogonality():
    n = 3
    for m1 in range(n):
        for n1 in range(n):
            for m2 in range(n):
                for n2 in range(n):
                    tr = np.trace(dagger(zoo.weyl(m2, n2, n)) @ zoo.weyl(m1, n1, n))
                    want = n if (m1, n1) == (m2, n2) else 0.0
                    assert abs(tr - want) <= 1e-10


def test_weyl_conjugation_relation():
    for n in (2, 3, 4):
        for m in range(n):
            for k in range(n):
                u = zoo.weyl(m, k, n)
                for p in range(n):
                    for q in range(n):
                        v = zoo.weyl(p, q, n)
                        phase = np.exp(2j * np.pi * (m * q - k * p) / n)
                        assert np.abs(dagger(v) @ u @ v - phase * u).max() <= 1e-10


def test_phi_basis_gram_and_factorization():
    for n in (2, 3, 4):
        basis = zoo.phi_basis(n)  # constructor enforces the Gram condition
        for r in range(n):
            for s in range(n):
                head = np.zeros(n, dtype=complex)
                head[(-r) % n] = 1.0
                tail = np.zeros(n, dtype=complex)
                for j in range(n):
                    tail[(j - r) % n] += np.exp(2j * np.pi * j * s / n)
                factored = np.kron(head, tail / np.sqrt(n))
                assert phase_distance(basis.vectors[r * n + s], factored) <= 1e-10


def test_weyl_expansion_picks_out_basis_element():
    d = zoo.weyl_expansion(zoo.weyl(2, 1, 3))
    want = np.zeros((3, 3), dtype=complex)
    want[2, 1] = 1.0
    assert np.abs(d - want).max() <= 1e-12
    d = zoo.weyl_expansion(np.eye(3))
    assert abs(d[0, 0] - 1.0) <= 1e-12 and np.abs(d).sum() - 1.0 <= 1e-12


def test_weyl_expansion_reconstructs_random_unitary():
    v = random_unitary(3, derive_stream(307))
    d = zoo.weyl_expansion(v)
    rec = sum(d[m, k] * zoo.weyl(m, k, 3) for m in range(3) for k in range(3))
    assert np.linalg.norm(rec - v) <= 1e-10


def test_weyl_expansion_rejects_zero():
    with pytest.raises(zoo.ZeroOperator):
        zoo.weyl_expansion(np.zeros((3, 3)))


def test_program_for_records_scale():
    v = 2.5 * random_unitary(3, derive_stream(308))
    xi = zoo.program_for(v)
    assert abs(xi.params["scale"] - 2.5) <= 1e-12
    assert abs(np.linalg.norm(xi.ket) - 1.0) <= 1e-12


def test_qidn_branches_match_conjugation():
    hadamard = (PAULIS[1] + PAULIS[3]) / np.sqrt(2)
    psi = random_state(2, derive_stream(309))
    dec = decompose(zoo.qidN(2), psi, zoo.program_for(hadamard), zoo.phi_basis(2))
    for r in range(2):
        for s in range(2):
            b = dec.by_label(f"{r},{s}")
            u = zoo.weyl(s, r, 2)
            assert abs(b.probability - 0.25) <= 1e-12
            assert np.abs(b.operator - u @ hadamard @ dagger(u) / 2).max() <= 1e-12


def test_qidn_branches_identity_target():
    dec = decompose(zoo.qidN(3), np.ones(3) / np.sqrt(3), zoo.program_for(np.eye(3)), zoo.phi_basis(3))
    for b in dec.branches:
        assert proportionality_scale(b.operator, np.eye(3), tol=1e-10) is not None


def test_qidn_success_branch_proportional_to_target():
    v = random_unitary(3, derive_stream(310))
    dec = decompose(zoo.qidN(3), random_state(3, derive_stream(311)), zoo.program_for(v), zoo.phi_basis(3))
    scale = proportionality_scale(dec.by_label("0,0").operator, v, tol=1e-10)
    assert scale is not None and abs(abs(scale) - 1 / 3) <= 1e-12


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_quoted_values():
    assert zoo.loop_success(zoo.qid2().program_dim, 2) == 7 / 16
    assert zoo.loop_success(zoo.qidN(2).program_dim, 1) == 0.25
    assert zoo.loop_success(zoo.qidN(2).program_dim, 2) == 7 / 16
    assert zoo.loop_success(zoo.u1_cnot().program_dim, 3) == 7 / 8
    assert abs(zoo.loop_success(zoo.qudit_diagonal_processor(3).program_dim, 4) - (1 - (2 / 3) ** 4)) <= 1e-15


def test_closed_form_thirty_loops():
    # (3/4)^30 evaluates to ~1.79e-4 residual failure
    failure = 1 - zoo.loop_success(zoo.qid2().program_dim, 30)
    assert abs(failure - 1.785820901700763e-04) <= 1e-15


def test_closed_form_limits():
    # |z| < 1 limit is ||B(z) psi||^2; |z| > 1 limit carries the 1/|z|^2 factor
    alpha2 = 0.36
    low = zoo.geometric_limit(0.5, zoo.bz_norm2(0.5, alpha2))
    assert abs(low - (alpha2 + 0.25 * (1 - alpha2))) <= 1e-15
    high = zoo.geometric_limit(2.0, zoo.bz_norm2(2.0, alpha2))
    assert abs(high - (alpha2 + 4 * (1 - alpha2)) / 4) <= 1e-15


def test_closed_form_validates():
    with pytest.raises(zoo.InvalidParameter):
        zoo.loop_success(2, 0)
    with pytest.raises(zoo.InvalidParameter):
        zoo.geometric_success(0.0, 4)


def test_closed_form_value_in_unit_interval():
    rng = derive_stream(312)
    for _ in range(50):
        z = complex(rng.uniform(0.1, 2.0), rng.uniform(-1, 1))
        n = int(rng.integers(2, 10))
        value = zoo.geometric_success(z, n, zoo.bz_norm2(z, float(rng.uniform(0, 1))))
        assert 0.0 <= value <= 1.0 + 1e-12


def test_errata_register():
    assert len(zoo.ERRATA) == 2
    assert {e["status"] for e in zoo.ERRATA} == {"resolved (oracle)"}
