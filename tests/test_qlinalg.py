"""Unit tests for the dense linear algebra layer."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import qlinalg
from qproc.qlinalg import (
    NotUnitary,
    SingularOperator,
    SIGMA_X,
    SIGMA_Z,
    basis_ket,
    dagger,
    inverse,
    is_unitary,
    phase_distance,
    su2_exp,
    su2_log,
)
from qproc.streams import derive_stream
from qproc import zoo


def test_tensor_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_kets():
    # joint index (i_a, i_b) -> i_a * dim_b + i_b
    v = np.kron(basis_ket(2, 0), basis_ket(2, 1))
    assert np.array_equal(v, basis_ket(4, 1))


def test_tensor_sigma_x_sigma_z():
    # hand expansion of the 4x4 Kronecker product
    want = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    got = np.kron(SIGMA_X, SIGMA_Z)
    assert np.array_equal(got, want)
    assert got[0, 2] == 1 and got[1, 3] == -1


def test_tensor_associative():
    rng = derive_stream(100)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), rtol=0, atol=1e-14)


def test_dagger_identity_and_diagonal():
    assert np.array_equal(dagger(np.eye(3)), np.eye(3))
    assert np.array_equal(dagger(np.diag([1j, -1j])), np.diag([-1j, 1j]))


def test_dagger_of_conditional_shift_is_inverse():
    # explicit 9x9 shift matrices: D|k>|m> = |k>|(m+k) mod 3>
    d = np.zeros((9, 9), dtype=complex)
    for k in range(3):
        for m in range(3):
            d[3 * k + (m + k) % 3, 3 * k + m] = 1.0
    assert np.array_equal(d, zoo.conditional_shift(3, +1))
    assert np.allclose(dagger(d) @ d, np.eye(9), atol=1e-15)


def test_apply_identity_and_flip():
    psi = np.array([0.6, 0.8j])
    assert np.array_equal(np.eye(2) @ psi, psi)
    assert np.array_equal(SIGMA_X @ basis_ket(2, 0), basis_ket(2, 1))


def test_apply_u1_rotation():
    # diag(e^{i pi/2}, e^{-i pi/2}) on (|0> + |1>)/sqrt(2) -> (i|0> - i|1>)/sqrt(2)
    u = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)])
    got = u @ (np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(got, np.array([1j, -1j]) / np.sqrt(2), atol=1e-15)


def test_is_unitary():
    assert is_unitary(np.eye(4), 1e-10)
    assert not is_unitary(np.diag([1.0, 0.5]), 1e-10)
    assert not is_unitary(np.ones((2, 3)), 1e-10)


def test_is_unitary_distributor_network():
    # product of four conditional shifts, built factor by factor
    n = 2

    def shift(control, target, sign):
        op = np.zeros((8, 8), dtype=complex)
        for idx in range(8):
            bits = [(idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
            bits[target] = (bits[target] + sign * bits[control]) % n
            op[(bits[0] << 2) | (bits[1] << 1) | bits[2], idx] = 1.0
        return op

    net = shift(2, 0, +1) @ shift(1, 0, -1) @ shift(0, 2, +1) @ shift(0, 1, +1)
    assert is_unitary(net, 1e-10)
    assert np.array_equal(net, zoo.qid_network(2))


def test_inverse_simple():
    assert np.allclose(inverse(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14)


def test_inverse_of_weyl_is_dagger():
    u = zoo.weyl(1, 1, 3)
    assert np.allclose(inverse(u), dagger(u), atol=1e-12)


def test_inverse_singular():
    with pytest.raises(SingularOperator):
        inverse(np.diag([1.0, 0.0]))
    with pytest.raises(SingularOperator):
        inverse(np.diag([1.0, 1e-12]))


def test_inverse_roundtrip_random():
    rng = derive_stream(101)
    for dim in (2, 3, 5, 7):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) + 2 * np.eye(dim)
        assert np.linalg.norm(m @ inverse(m) - np.eye(dim)) <= 1e-9
        assert np.linalg.norm(inverse(m) @ m - np.eye(dim)) <= 1e-9


def test_apply_dagger_roundtrip_random_unitary():
    rng = derive_stream(102)
    for dim in (2, 3, 4):
        u = qlinalg.random_unitary(dim, rng)
        psi = qlinalg.random_state(dim, rng)
        assert np.linalg.norm(dagger(u) @ (u @ psi) - psi) <= 1e-10


def test_su2_log_identity():
    mu, phase = su2_log(np.eye(2))
    assert np.array_equal(mu, np.zeros(3))
    assert phase == 0.0


def test_su2_log_z_rotation():
    alpha = 0.3
    mu, phase = su2_log(np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)]))
    assert np.allclose(mu, [0, 0, alpha], atol=1e-12)
    assert abs(phase) <= 1e-12


def test_su2_log_sigma_x():
    # sigma_x = e^{-i pi/2} exp(i (pi/2) sigma_x)
    mu, phase = su2_log(SIGMA_X)
    assert np.allclose(mu, [np.pi / 2, 0, 0], atol=1e-12)
    assert abs(phase + np.pi / 2) <= 1e-12
    assert np.allclose(np.exp(1j * phase) * su2_exp(mu), SIGMA_X, atol=1e-12)


def test_su2_log_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        su2_log(np.diag([1.0, 0.5]))
    with pytest.raises(NotUnitary):
        su2_log(np.eye(3))


def test_su2_log_exp_roundtrip():
    rng = derive_stream(103)
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        mu = axis * rng.uniform(1e-3, np.pi - 1e-3)
        rec, phase = su2_log(su2_exp(mu))
        assert np.linalg.norm(rec - mu) <= 1e-9
        assert abs(phase) <= 1e-9


unit_axes = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 1e-3)


@settings(max_examples=300)
@given(axis=unit_axes, below_pi=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)))
def test_su2_log_exp_roundtrip_near_pi(axis, below_pi):
    # Near |mu| = pi the axis comes from a vanishing sin|mu|; the rotation
    # must still come back, up to global phase.
    mu = np.asarray(axis) / np.linalg.norm(axis) * (np.pi - below_pi)
    rec, _ = su2_log(su2_exp(mu))
    assert phase_distance(su2_exp(rec), su2_exp(mu)) <= 1e-8


def test_su2_log_axis_free_at_pi():
    # at |mu| = pi the axis is not unique; any unit axis must reconstruct
    mu, phase = su2_log(-np.eye(2, dtype=complex))
    assert abs(np.linalg.norm(mu) - np.pi) <= 1e-12
    assert np.allclose(np.exp(1j * phase) * su2_exp(mu), -np.eye(2), atol=1e-12)


def test_normalize_and_is_normalized():
    v = qlinalg.normalize(np.array([3.0, 4.0]))
    assert qlinalg.is_normalized(v)
    assert not qlinalg.is_normalized(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        qlinalg.normalize(np.zeros(2))


def test_ket_rejects_non_finite():
    with pytest.raises(ValueError):
        qlinalg.ket([np.inf, 0.0])
