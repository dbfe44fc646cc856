"""Dense complex linear algebra shared by every processor module.

Kets are 1-d complex numpy arrays, operators 2-d complex numpy arrays; all
functions are pure. The composite-index convention is row-major throughout
(first tensor factor major): the joint index of (i_a, i_b) is
i_a * dim_b + i_b, the order of np.kron, which every module uses for
tensor products.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# |sum |amp|^2 - 1| bound for a ket considered normalized.
TOL_NORM = 1e-10
# Smallest-to-largest singular value ratio below which a matrix is treated
# as singular. Both values sized for double precision at dims <= ~350.
TOL_SINGULAR = 1e-9

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


class SingularOperator(ValueError):
    """Matrix inversion requested below the singularity threshold."""


class NotUnitary(ValueError):
    """A unitary matrix was required."""


def ket(amps) -> np.ndarray:
    """Build a ket from a sequence of amplitudes; rejects non-finite entries."""
    v = np.asarray(amps, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("ket amplitudes must be finite")
    return v


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def normalize(v: np.ndarray) -> np.ndarray:
    n = frobenius(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def is_normalized(v: np.ndarray, tol: float = TOL_NORM) -> bool:
    return abs(np.vdot(v, v).real - 1.0) <= tol


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(m).T


@lru_cache(maxsize=None)
def identity(dim: int) -> np.ndarray:
    """Read-only complex identity of the given dimension, one shared instance per dim."""
    e = np.eye(dim, dtype=complex)
    e.setflags(write=False)
    return e


def frobenius(m: np.ndarray) -> np.floating:
    """np.linalg.norm(m) of a float or complex m bit for bit: numpy's own sqrt(x.x) or sqrt(re.re + im.im), without its dispatch."""
    x = m.ravel(order="K")
    if x.dtype.kind != "c":
        return np.sqrt(x.dot(x))
    re, im = x.real, x.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def frobenius_rows(x: np.ndarray) -> list[float]:
    """`frobenius` of each x[k] of a stack, bit for bit, as Python floats.

    `np.vecdot` hands each row's x.x, or re.re and im.im (one call over
    the strided real and imaginary views), to the BLAS dot that `frobenius`
    calls; the sum and the square root are IEEE operations on the same
    doubles, in Python or in numpy.
    """
    k = x.shape[0]
    if x.dtype.kind != "c":
        flat = x.reshape(k, -1)  # a C-order copy of a strided stack, as `frobenius`'s ravel copies a strided m
        return [math.sqrt(s) for s in np.vecdot(flat, flat).tolist()]
    parts = x.reshape(k, -1, 1).view(np.float64).transpose(0, 2, 1)  # [k, 0] = re, [k, 1] = im
    return [math.sqrt(re + im) for re, im in np.vecdot(parts, parts).tolist()]


def per_row(values: list[float]):
    """Factors, one per row, to broadcast over a (K, ...) stack: a lone row's as a Python float, which numpy applies
    as it applies the (1, 1, 1) array of it, without building that array."""
    return values[0] if len(values) == 1 else np.array(values)[:, None, None]


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff ||m^dag m - I||_F <= tol (square matrices only)."""
    if m.shape[0] != m.shape[1]:
        return False
    return frobenius(dagger(m) @ m - identity(m.shape[0]).real) <= tol


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix; raises SingularOperator below threshold.

    The threshold is relative: smallest singular value <= TOL_SINGULAR times
    the largest counts as singular. The SVD runs only when a bound cannot
    decide (`_conditioned`). Either way the result is np.linalg.inv(m), and
    a refusal is the SVD rule's.
    """
    if m.shape[0] != m.shape[1]:
        raise ValueError("inverse requires a square matrix")
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not _conditioned(m, inv):
        _svd_rule(m)
    return np.linalg.inv(m) if inv is None else inv


def inverses(ms: np.ndarray) -> tuple[np.ndarray, dict[int, SingularOperator]]:
    """`inverse` of each matrix of the (K, D, D) stack, from one stacked inversion.

    Returns the stack of inverses, each row with the bits `inverse` gives
    its matrix alone, and the SingularOperator of each matrix that
    `inverse` refuses, by index; the row of a refused matrix is 0. An
    exactly singular matrix fails the stacked inversion, and then each
    matrix is inverted alone.
    """
    try:
        invs, alone = np.linalg.inv(ms), False
    except np.linalg.LinAlgError:
        invs, alone = np.zeros(ms.shape, dtype=complex), True
    refused = {}
    for k in range(len(ms)):
        try:
            if alone:
                invs[k] = inverse(ms[k])
            elif not _conditioned(ms[k], invs[k]):
                _svd_rule(ms[k])
        except SingularOperator as exc:
            invs[k] = 0.0
            refused[k] = exc
    return invs, refused


# Square of the bound on ||m||_F ||m^-1||_F below which `_conditioned` passes.
_CONDITION_BOUND2 = (0.5 / TOL_SINGULAR) ** 2


def _conditioned(m: np.ndarray, inv: np.ndarray) -> bool:
    """Whether ||m||_F ||m^-1||_F < 0.5/TOL_SINGULAR, which bounds s[0]/s[-1] with a factor-2 margin over rounding.

    The square comes from two vdot self-products as Python floats: an overflow is inf and a nan
    compares false, and both leave the decision to the SVD rule. The bound only decides whether the
    SVD runs, so it changes no outcome and no bit.
    """
    return float(np.vdot(m, m).real) * float(np.vdot(inv, inv).real) < _CONDITION_BOUND2


def _svd_rule(m: np.ndarray) -> None:
    """Raise SingularOperator when m's singular value ratio is at or below TOL_SINGULAR."""
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0 or s[-1] <= TOL_SINGULAR * s[0]:
        raise SingularOperator(f"singular value ratio {s[-1]:.3e}/{s[0]:.3e} below threshold")


def su2_exp(mu) -> np.ndarray:
    """exp(i mu . sigma) = cos|mu| I + i (sin|mu|/|mu|) mu . sigma.

    The |mu| -> 0 limit is taken analytically (sin x / x -> 1).
    """
    mu = np.asarray(mu, dtype=float)
    m = frobenius(mu)
    mdotsig = mu[0] * SIGMA_X + mu[1] * SIGMA_Y + mu[2] * SIGMA_Z
    return np.cos(m) * SIGMA_0 + 1j * np.sinc(m / np.pi) * mdotsig


def su2_log(u: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, float]:
    """Invert su2_exp up to a global phase: u = e^{i phase} exp(i mu . sigma).

    Returns (mu, phase) with |mu| in [0, pi] and phase in (-pi, pi]. The
    phase branch is fixed by taking arg(det u) in [-pi, pi), which makes the
    map the identity on exp(i mu . sigma) for |mu| < pi. At |mu| = pi the
    rotation axis is not unique; an arbitrary unit axis is returned.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not is_unitary(u, tol):
        raise NotUnitary("su2_log requires a 2x2 unitary")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    ang = float(np.arctan2(det.imag, det.real))  # np.angle(det) bit for bit
    if ang >= np.pi - 1e-12:
        ang -= 2 * np.pi
    phase = ang / 2.0
    v = np.exp(-1j * phase) * u
    # v = a0 I + i (a . sigma) with a0, a real for det v = 1.
    a0 = (v[0, 0] + v[1, 1]).real / 2.0
    a = np.array(
        [
            ((v[0, 1] + v[1, 0]) / 2j).real,
            ((v[0, 1] - v[1, 0]) / 2.0).real,
            ((v[0, 0] - v[1, 1]) / 2j).real,
        ]
    )
    s = frobenius(a)
    mu = float(np.arctan2(s, a0))
    if s > 1e-12:
        vec = mu * a / s
    elif a0 > 0:
        vec = np.zeros(3)
    else:
        vec = np.array([np.pi, 0.0, 0.0])
    return vec, phase


def su2_logs(us: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """`su2_log` of each matrix of the (K, 2, 2) stack: the (K, 3) mu and (K,) phases, each row with the bits of its
    matrix alone, from stacked calls. NotUnitary, as `su2_log` raises it, if any matrix fails the check.

    `su2_log`'s numpy-scalar steps keep their bits only in this form. numpy's complex array multiply differs from
    its scalar multiply (u[0, 0] * u[1, 1]) in about 44% of products (8818 of 20000 Haar-unitary entries, numpy
    2.4.6 on an AVX-512 Xeon), so det is formed from real parts, which matched all 20000. `math.atan2` differs
    from `np.arctan2` in about 7.5% of cases (1508 of 20000), and np.arctan2 of an array matched its scalar in
    all 20000, so every step stays in numpy. Divisions by 2j and 2.0 are written out as numpy's complex
    division forms them, which decides the sign of a zero.
    """
    if us.shape[1:] != (2, 2) or not all(x <= tol for x in frobenius_rows(np.conjugate(us).transpose(0, 2, 1) @ us - identity(2).real)):
        raise NotUnitary("su2_log requires a 2x2 unitary")
    rows, cols = us[:, 0], us[:, 1, ::-1]  # (u00, u01) and (u11, u10)
    re = rows.real * cols.real - rows.imag * cols.imag
    im = rows.real * cols.imag + rows.imag * cols.real
    ang = np.arctan2(im[:, 0] - im[:, 1], re[:, 0] - re[:, 1])
    phase = np.where(ang >= np.pi - 1e-12, ang - 2 * np.pi, ang) / 2.0
    turn = np.zeros(len(us), dtype=complex)
    turn.imag = -phase  # -1j * phase
    v = (np.exp(turn)[:, None, None] * us).reshape(-1, 4)
    a0 = (v[:, 0].real + v[:, 3].real) / 2.0
    # v01 + v10, v01 - v10 and v00 - v11 over 2j, 2.0 and 2j, which numpy's complex division forms as
    # (re * 0 + im) * 0.5, (re + im * 0) * 0.5 and (re * 0 + im) * 0.5
    w = np.stack([v[:, 1] + v[:, 2], v[:, 1] - v[:, 2], v[:, 0] - v[:, 3]], axis=1)
    a = (w.real * _SU2_RE + w.imag * _SU2_IM) * 0.5
    s = np.array(frobenius_rows(a))
    mu = np.arctan2(s, a0)
    with np.errstate(all="ignore"):  # a row with s at or below 1e-12 takes its vec below
        vec = mu[:, None] * a / s[:, None]
    small = s <= 1e-12
    if small.any():
        vec[small] = np.where((a0[small] > 0)[:, None], 0.0, _SU2_AXIS)
    return vec, phase


# which part of each of `su2_logs`' three sums its a reads (the other is multiplied by 0), and the axis at |mu| = pi
_SU2_RE, _SU2_IM = np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0])
_SU2_AXIS = np.array([np.pi, 0.0, 0.0])


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of ||a - e^{i phi} b||_F (global-phase-blind distance)."""
    overlap = np.vdot(b, a)
    phi = np.angle(overlap) if overlap != 0 else 0.0
    return float(frobenius(a - np.exp(1j * phi) * b))


def proportionality_scale(a: np.ndarray, b: np.ndarray, tol: float = 1e-9):
    """Complex c with a = c * b within tol (Frobenius), or None."""
    bb = np.vdot(b, b)
    if bb == 0:
        return None
    c = np.vdot(b, a) / bb
    if np.linalg.norm(a - c * b) > tol * max(1.0, float(np.linalg.norm(a))):
        return None
    return complex(c)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state of the given dimension."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
