"""Concrete processors, program encoders, measurement bases and closed forms.

Families
--------
* ``u1_cnot``: the single-CNOT processor realizing U(alpha) = exp(i alpha sigma_z)
  rotations with probability 1/2 per shot.
* ``vmc3``: the CNOT-plus-Toffoli processor with a 4-dim program, success 3/4.
* ``cyclic_shift_processor``: qubit processor with an N-dim program realizing the
  non-unitary amplitude rescaler B(z) = |0><0| + z|1><1|.
* ``qudit_diagonal_processor``: diagonal-operator processor on a D-level system.
* ``amp_modifier_processor``: qudit processor for B0(z) = z|0><0| + X, which
  rescales a single basis amplitude.
* ``qid2`` / ``qidN``: the information-distributor processors encoding arbitrary
  single-qubit (SU(2)) and single-qudit operators in entangled program states.

Each constructor returns validated ProcessorDefinitions; the companion
program builders return ProgramState objects with encoding metadata.

Closed forms
------------
Three laws give every exact success probability the families admit:
`loop_success` (n corrected rounds of a processor whose N program outcomes
are equiprobable and one succeeds), `geometric_success` (one shot of B(z)
or B0(z) on a geometric program, with `bz_norm2` for ||B(z) psi||^2) and
`geometric_limit` (its infinite-program limit).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import qlinalg
from .processor import (
    ProcessorDefinition,
    ProgramBasis,
    ProgramState,
    assemble,
    decompose,  # noqa: F401 - re-exported: callers look it up in zoo
)
from .qlinalg import basis_ket


class InvalidParameter(ValueError):
    """Parameter outside the family's admissible range."""


class ZeroOperator(ValueError):
    """An operator expansion was requested for the zero operator."""


_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


# ---------------------------------------------------------------------------
# U(1) rotations on a qubit: single-CNOT processor
# ---------------------------------------------------------------------------

def u1_operator(alpha: float) -> np.ndarray:
    """U(alpha) = diag(e^{i alpha}, e^{-i alpha}) = exp(i alpha sigma_z)."""
    return np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])


@lru_cache(maxsize=None)
def u1_cnot() -> ProcessorDefinition:
    """CNOT with the data qubit as control and the program qubit as target.

    Blocks: A_00 = |0><0|, A_01 = |1><1|, A_10 = |1><1|, A_11 = |0><0|.
    Measuring the program in the computational basis applies U(alpha)/sqrt(2)
    on outcome 0 and U(-alpha)/sqrt(2) on outcome 1.
    """
    blocks = np.array([[_P0, _P1], [_P1, _P0]])
    return assemble(blocks, label="u1_cnot")


def u1_program(alpha: float) -> ProgramState:
    """Program ket (e^{i alpha}|0> + e^{-i alpha}|1>)/sqrt(2) encoding U(alpha)."""
    k = np.exp(np.array([1j * alpha, -1j * alpha])) / math.sqrt(2)  # one exp call, the bits of two
    return ProgramState(ket=k, encoding="u1", params={"alpha": float(alpha)})


# ---------------------------------------------------------------------------
# One-shot two-round variant: CNOT followed by a Toffoli, 4-dim program
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def vmc3() -> ProcessorDefinition:
    """D=2, N=4 processor built from a CNOT and a Toffoli.

    The data qubit controls the CNOT on program qubit a; data and qubit a
    control the Toffoli on program qubit b. Program index j = 2*a + b.
    Only outcome 3 (both program qubits read 1) fails; outcomes 0..2 apply
    an operator proportional to the encoded rotation.
    """
    z = np.zeros((2, 2), dtype=complex)
    blocks = np.array(
        [
            [_P0, z, _P1, z],
            [z, _P0, z, _P1],
            [z, _P1, _P0, z],
            [_P1, z, z, _P0],
        ]
    )
    return assemble(blocks, label="vmc3")


def vmc3_program(alpha: float) -> ProgramState:
    """Product program Xi(alpha) (x) Xi(2*alpha) for the vmc3 processor.

    Branch operators become e^{2i alpha}U(alpha)/2, e^{-2i alpha}U(alpha)/2,
    U(alpha)/2 and U(-3 alpha)/2, so outcomes 0..2 all realize U(alpha) and
    the overall success probability is 3/4 for every input state.
    """
    k = np.multiply.outer(u1_program(alpha).ket, u1_program(2 * alpha).ket).reshape(-1)  # the product np.kron forms
    return ProgramState(ket=k, encoding="u1", params={"alpha": float(alpha), "program_qubits": 2})


def vmc3_phase_ramp_program(alpha: float) -> ProgramState:
    """Linear phase-ramp program (1/2) sum_j e^{i(3-2j) alpha}|j>.

    Published alternative to `vmc3_program` whose middle two amplitudes are
    swapped relative to the product encoding; its success branches are not
    proportional to U(alpha) (see the errata register). Kept so the
    discrepancy can be demonstrated, not for production use.
    """
    k = np.array([np.exp(1j * (3 - 2 * j) * alpha) for j in range(4)]) / 2
    return ProgramState(ket=k, encoding="raw", params={"alpha": float(alpha), "form": "phase_ramp"})


# ---------------------------------------------------------------------------
# Non-unitary B(z) on a qubit: cyclic-shift processor with N-dim program
# ---------------------------------------------------------------------------

def bz_operator(z: complex) -> np.ndarray:
    """B(z) = |0><0| + z |1><1|."""
    return np.diag([1.0 + 0j, complex(z)])


@lru_cache(maxsize=None)
def cyclic_shift_processor(n_program: int) -> ProcessorDefinition:
    """D=2 processor with blocks A_jk = delta_jk |0><0| + delta_{k,(j+1) mod N} |1><1|.

    With a geometric program, outcomes 0..N-2 all apply B(z) (up to scale)
    and outcome N-1 applies c0 (z^{N-1}|0><0| + |1><1|).
    """
    if n_program < 2:
        raise InvalidParameter("program dimension must be at least 2")
    n = n_program
    blocks = np.zeros((n, n, 2, 2), dtype=complex)
    for j in range(n):
        blocks[j, j] += _P0
        blocks[j, (j + 1) % n] += _P1
    return assemble(blocks, label=f"cyclic_shift({n})")


def _geometric_c0(z: complex, n: int) -> float:
    try:
        mod2 = abs(z) ** 2
        if abs(mod2 - 1.0) < 1e-12:
            return 1.0 / np.sqrt(n)  # analytic |z| = 1 limit of the 0/0 form
        return float(np.sqrt((1 - mod2) / (1 - mod2**n)))
    except OverflowError:
        raise InvalidParameter(f"|z|^(2N) overflows a float at z={z!r}, N={n}") from None


def geometric_program(z: complex, n_program: int) -> ProgramState:
    """Program c0 sum_j z^j |j> with |c0|^2 = (1-|z|^2)/(1-|z|^{2N}).

    z = 0 is rejected: B(0) itself is realizable, but the correction chain
    divides by z, so the family excludes it at construction.
    """
    z = complex(z)
    if z == 0:
        raise InvalidParameter("z must be non-zero")
    if n_program < 2:
        raise InvalidParameter("program dimension must be at least 2")
    c0 = _geometric_c0(z, n_program)
    k = qlinalg.normalize(c0 * z ** np.arange(n_program))
    return ProgramState(ket=k, encoding="geometric", params={"z": z, "n_program": int(n_program)})


# ---------------------------------------------------------------------------
# Diagonal operators on a qudit
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def qudit_diagonal_processor(dim: int) -> ProcessorDefinition:
    """N = D processor with A_jk = |m><m|, m = (k - j) mod D.

    Branch j of a program sum_k c_k |k> is the diagonal operator whose m-th
    entry is c_{(m+j) mod D}: the program entries cyclically shifted by j.
    """
    if dim < 2:
        raise InvalidParameter("data dimension must be at least 2")
    blocks = np.zeros((dim, dim, dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(dim):
            m = (k - j) % dim
            blocks[j, k, m, m] = 1.0
    return assemble(blocks, label=f"qudit_diagonal({dim})")


def diagonal_program(entries) -> ProgramState:
    """Normalized program encoding the diagonal operator diag(entries)."""
    e = np.asarray(entries, dtype=complex).reshape(-1)
    norm = qlinalg.frobenius(e)
    if norm == 0:
        raise InvalidParameter("diagonal entries must not all vanish")
    k = e / norm  # qlinalg.normalize(e), without a second norm
    return ProgramState(ket=k, encoding="diagonal", params={"entries": tuple(k.tolist())})


# ---------------------------------------------------------------------------
# Single-amplitude modifier B0(z) on a qudit
# ---------------------------------------------------------------------------

def b0_operator(z: complex, dim: int) -> np.ndarray:
    """B0(z) = z |0><0| + X with X = sum_{k>=1} |k><k| on a D-level system."""
    m = np.eye(dim, dtype=complex)
    m[0, 0] = z
    return m


@lru_cache(maxsize=None)
def amp_modifier_processor(dim: int, n_program: int) -> ProcessorDefinition:
    """Blocks A_jk = delta_jk X + delta_{k,(j+1) mod N} |0><0| on a D-level system.

    The program index wraps modulo the program dimension N (the grid is
    N x N even when D differs). With a geometric program, outcomes 0..N-2
    apply B0(z) up to scale.
    """
    if dim < 2:
        raise InvalidParameter("data dimension must be at least 2")
    if n_program < 2:
        raise InvalidParameter("program dimension must be at least 2")
    p00 = np.zeros((dim, dim), dtype=complex)
    p00[0, 0] = 1.0
    x = np.eye(dim, dtype=complex) - p00
    blocks = np.zeros((n_program, n_program, dim, dim), dtype=complex)
    for j in range(n_program):
        blocks[j, j] += x
        blocks[j, (j + 1) % n_program] += p00
    return assemble(blocks, label=f"amp_modifier({dim},{n_program})")


# ---------------------------------------------------------------------------
# SU(2) rotations: qubit information distributor
# ---------------------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def bell_basis() -> np.ndarray:
    """Bell vectors (Xi_0, Xi_x, Xi_y, Xi_z) as rows, in sigma-index order."""
    s = 1 / np.sqrt(2)
    return _frozen(
        np.array(
            [
                [s, 0, 0, s],    # (|00> + |11>)/sqrt(2)
                [0, s, s, 0],    # (|01> + |10>)/sqrt(2)
                [0, s, -s, 0],   # (|01> - |10>)/sqrt(2)
                [s, 0, 0, -s],   # (|00> - |11>)/sqrt(2)
            ],
            dtype=complex,
        )
    )


@lru_cache(maxsize=None)
def qid2() -> ProcessorDefinition:
    """Qubit distributor G = sum_j sigma_j (x) |Xi_j><Xi_j| over the Bell basis.

    In `qid2_basis` the branch operators are sigma_j U sigma_j / 2 for a
    program encoding U (the "1-" branch picks up a global -1 with the plain
    |1>|-> phase convention); every outcome has probability 1/4 whenever the
    encoded operator is unitary.
    """
    xis = bell_basis()
    g = sum(np.kron(sig, np.outer(xi, np.conjugate(xi))) for sig, xi in zip(qlinalg.PAULIS, xis))
    blocks = g.reshape(2, 4, 2, 4).transpose(1, 3, 0, 2)
    return assemble(blocks, label="qid2")


def su2_program(mu) -> ProgramState:
    """Program cos|mu| |Xi_0> + i (sin|mu|/|mu|) (mu_x |Xi_x> + mu_y |Xi_y> + mu_z |Xi_z>).

    Encodes U = exp(i mu . sigma); the |mu| -> 0 limit is |Xi_0> (identity).
    """
    mu = np.asarray(mu, dtype=float).reshape(3)
    m = qlinalg.frobenius(mu)
    xis = bell_basis()
    y = np.pi * (m / np.pi)  # np.sinc(m / pi) is sin(y) / y, and sin(eps) / eps == 1 where y == 0
    sinc = np.sin(y) / y if y else np.float64(1.0)
    k = np.cos(m) * xis[0] + 1j * sinc * (mu[0] * xis[1] + mu[1] * xis[2] + mu[2] * xis[3])
    return ProgramState(ket=k, encoding="su2", params={"mu": tuple(mu.tolist())})


def su2_programs(mus: np.ndarray) -> list[ProgramState]:
    """`su2_program` of each row of the (K, 3) float stack, from stacked calls, each with the bits of its row alone.

    Every step is the numpy ufunc `su2_program` calls on a scalar, which matches it row for row (see `su2_logs`).
    """
    m = np.array(qlinalg.frobenius_rows(mus))
    xis = bell_basis()
    y = np.pi * (m / np.pi)
    with np.errstate(all="ignore"):  # a row with y == 0 takes sinc 1
        sinc = np.where(y != 0, np.sin(y) / y, 1.0)
    turn = np.zeros(len(mus), dtype=complex)
    turn.imag = sinc  # 1j * sinc
    k = np.cos(m)[:, None] * xis[0] + turn[:, None] * (mus[:, :1] * xis[1] + mus[:, 1:2] * xis[2] + mus[:, 2:] * xis[3])
    return [ProgramState(ket=k[r], encoding="su2", params={"mu": tuple(mu)}) for r, mu in enumerate(mus.tolist())]


@lru_cache(maxsize=None)
def qid2_basis() -> ProgramBasis:
    """Measurement basis {|0>|+>, |0>|->, |1>|+>, |1>|->} with |+-> = (|0> +- |1>)/sqrt(2)."""
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    zero, one = basis_ket(2, 0), basis_ket(2, 1)
    vecs = np.array(
        [np.kron(zero, plus), np.kron(zero, minus), np.kron(one, plus), np.kron(one, minus)]
    )
    return ProgramBasis(vectors=vecs, labels=("0+", "0-", "1+", "1-"))


# ---------------------------------------------------------------------------
# SU(N) rotations: qudit information distributor
# ---------------------------------------------------------------------------

def conditional_shift(n: int, sign: int = +1) -> np.ndarray:
    """Conditional shift on two qudits: |k>|m> -> |k>|(m + sign*k) mod N>.

    sign=+1 is the conditional adder D_ab (the N=2 case is a CNOT); sign=-1
    is its adjoint, shifting in the opposite direction.
    """
    if n < 2:
        raise InvalidParameter("qudit dimension must be at least 2")
    if sign not in (+1, -1):
        raise InvalidParameter("sign must be +1 or -1")
    op = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        for m in range(n):
            op[k * n + (m + sign * k) % n, k * n + m] = 1.0
    return op


def qid_network(n: int) -> np.ndarray:
    """The four-conditional-shift network D_31 D_21^dag D_13 D_12 on three qudits.

    Qudit 1 is the data register, qudits 2 and 3 the program register. The
    product is the basis permutation |a>|b>|c> -> |(a-b+c)>|(b+a)>|(c+a)>
    (all mod N), so its N^3 unit entries are set directly instead of
    multiplying four dense N^3 x N^3 shifts (O(N^9)).
    """
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    g = np.zeros((n**3, n**3), dtype=complex)
    g[((a - b + c) % n) * n * n + ((b + a) % n) * n + (c + a) % n, np.arange(n**3)] = 1.0
    return g


@lru_cache(maxsize=None)
def qidN(n: int) -> ProcessorDefinition:
    """Qudit distributor: data dimension N, program dimension N^2."""
    if n < 2:
        raise InvalidParameter("qudit dimension must be at least 2")
    g = qid_network(n)
    blocks = g.reshape(n, n * n, n, n * n).transpose(1, 3, 0, 2)
    return assemble(blocks, label=f"qidN({n})")


@lru_cache(maxsize=None)
def _bell_stack(n: int) -> np.ndarray:
    """All N^2 entangled program kets, indexed [m, shift]."""
    stack = np.zeros((n, n, n * n), dtype=complex)
    for m in range(n):
        for shift in range(n):
            for j in range(n):
                stack[m, shift, j * n + (j - shift) % n] = np.exp(2j * np.pi * m * j / n)
    return _frozen(stack / np.sqrt(n))


@lru_cache(maxsize=None)
def _weyl_stack(n: int) -> np.ndarray:
    """All N^2 Weyl operators, indexed [m, shift]."""
    stack = np.zeros((n, n, n, n), dtype=complex)
    for m in range(n):
        for shift in range(n):
            for s in range(n):
                stack[m, shift, (s - shift) % n, s] = np.exp(-2j * np.pi * s * m / n)
    return _frozen(stack)


@lru_cache(maxsize=None)
def _weyl_bras(n: int) -> np.ndarray:  # conj(_weyl_stack(n)), as `weyl_expansion` reads it
    return _frozen(np.conjugate(_weyl_stack(n)))


def bell_state(m: int, n_shift: int, n: int) -> np.ndarray:
    """Maximally entangled program ket (1/sqrt(N)) sum_k w^{mk} |k>|(k - n_shift) mod N>."""
    return _bell_stack(n)[m, n_shift]


def weyl(m: int, n_shift: int, n: int) -> np.ndarray:
    """Weyl operator U^{(m,n)} = sum_s w^{-sm} |(s - n) mod N><s|.

    The N^2 operators are mutually orthogonal in the Hilbert-Schmidt inner
    product (trace of the pairwise products is N on the diagonal), hence a
    basis of the operator space.
    """
    return _weyl_stack(n)[m, n_shift]


@lru_cache(maxsize=None)
def phi_basis(n: int) -> ProgramBasis:
    """Fourier-conjugate measurement basis |Phi_rs> = (1/N) sum_mn w^{mr - ns} |Xi_mn>.

    Labels are "r,s" in r-major order. Each vector factorizes over the two
    program qudits, so the measurement is locally realizable.
    """
    bells = _bell_stack(n)
    grid = np.arange(n)
    vecs = np.zeros((n * n, n * n), dtype=complex)
    for r in range(n):
        for s in range(n):
            weights = np.exp(2j * np.pi * (grid[:, None] * r - grid[None, :] * s) / n)
            vecs[r * n + s] = np.tensordot(weights, bells, axes=([0, 1], [0, 1])) / n
    labels = tuple(f"{r},{s}" for r in range(n) for s in range(n))
    return ProgramBasis(vectors=vecs, labels=labels)


def weyl_expansion(v: np.ndarray) -> np.ndarray:
    """Coefficients d with v = sum_mn d[m, n] U^{(m,n)}; d[m,n] = tr(U^{(m,n)dag} v)/N."""
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    if v.shape != (n, n):
        raise ValueError("operator must be square")
    if qlinalg.frobenius(v) < 1e-12:
        raise ZeroOperator("cannot expand the zero operator")
    return _weyl_coefficients(v)


def _weyl_coefficients(v: np.ndarray) -> np.ndarray:
    return np.einsum("mkij,ij->mk", _weyl_bras(v.shape[0]), v) / v.shape[0]


def weyl_program(d, scale: float) -> ProgramState:
    """Program ket sum_mn d[m, n] |Xi_mn>; `scale` (see `program_for`) is recorded, not applied."""
    d = np.asarray(d, dtype=complex)
    return ProgramState(ket=_weyl_kets(d[None])[0], encoding="weyl", params={"d": d, "scale": float(scale), "n_dim": d.shape[0]})


def _weyl_kets(ds: np.ndarray) -> np.ndarray:
    """The ket of each d of the (K, N, N) stack: np.tensordot(d, bells, 2)'s one product, d as a 1 x N^2 row times the N^2 x N^2 bells, stacked."""
    k, n = ds.shape[0], ds.shape[1]
    return np.matmul(ds.reshape(k, 1, n * n), _bell_stack(n).reshape(n * n, n * n)).reshape(k, n * n)


def program_for(v: np.ndarray) -> ProgramState:
    """Program ket sum_mn d_mn |Xi_mn> implementing the operator v.

    v is first rescaled to Frobenius norm sqrt(N) so that the expansion
    coefficients have unit total weight; the discarded scale is recorded in
    the params (unitary operators have scale 1). The rescaled operator has
    norm sqrt(N), so it is expanded without `weyl_expansion`'s zero check.
    A finite v whose squared entries overflow (|v_ij| past about 1.3e154)
    takes the norm of v / max|v| times max|v|; every other v keeps its bits.
    """
    return programs_for(np.asarray(v, dtype=complex)[None])[0]


def programs_for(vs: np.ndarray) -> list[ProgramState]:
    """`program_for` of each operator of the (K, N, N) complex stack, from stacked products, each with the bits of its operator alone."""
    n = vs.shape[1]
    with np.errstate(over="ignore"):
        norms = qlinalg.frobenius_rows(vs)
        for k in [k for k, x in enumerate(norms) if x == math.inf]:
            top = np.abs(vs[k]).max()
            norms[k] = float(qlinalg.frobenius(vs[k] / top) * top)
    if any(x < 1e-12 for x in norms):
        raise ZeroOperator("cannot encode the zero operator")
    scales = [x / math.sqrt(n) for x in norms]
    ds = np.einsum("mkij,bij->bmk", _weyl_bras(n), vs / qlinalg.per_row(scales)) / n
    kets = _weyl_kets(ds)
    return [ProgramState(ket=kets[k], encoding="weyl", params={"d": ds[k], "scale": scale, "n_dim": n}) for k, scale in enumerate(scales)]


# ---------------------------------------------------------------------------
# Closed-form success probabilities
# ---------------------------------------------------------------------------

def _probability(value: float) -> float:
    if not 0.0 <= value <= 1.0 + 1e-12:
        raise ValueError(f"probability {value} outside [0, 1]")
    return float(value)


def _pos_int(x, minimum: int = 1) -> int:
    n = int(x)
    if n != x or n < minimum:
        raise InvalidParameter(f"expected an integer >= {minimum}, got {x!r}")
    return n


def _mod2(z) -> float:
    """|z|^2 of a non-zero z (the geometric families exclude z = 0)."""
    z = complex(z)
    if z == 0:
        raise InvalidParameter("z must be non-zero")
    try:
        return abs(z) ** 2
    except OverflowError:
        raise InvalidParameter(f"|z|^2 overflows a float at z={z!r}") from None


def loop_success(n_outcomes: int, rounds: int) -> float:
    """1 - (1 - 1/N)^n: n rounds, each heralding success on one of N equiprobable outcomes.

    N is the program dimension: 1 - (1/2)^n for u1, 1 - (1 - 1/D)^n for
    unitary diagonal qudit targets, 1 - (3/4)^n for qid2 and
    1 - (1 - 1/N^2)^k for the qudit distributor.
    """
    return _probability(1.0 - (1.0 - 1.0 / _pos_int(n_outcomes, minimum=2)) ** _pos_int(rounds))


def bz_norm2(z, alpha2: float | None = None) -> float:
    """||B(z) psi||^2 = alpha2 + |z|^2 (1 - alpha2) for |<0|psi>|^2 = alpha2; None averages over states."""
    mod2 = _mod2(z)
    return 0.5 * (1 + mod2) if alpha2 is None else alpha2 + mod2 * (1 - alpha2)


def geometric_success(z, n_program: int, bnorm2: float = 1.0) -> float:
    """Single-shot success of B(z) or B0(z) on an N-dim geometric program, bnorm2 = ||B psi||^2.

    It is (1 - |z|^{2(N-1)}) / (1 - |z|^{2N}) * bnorm2, with the |z| = 1
    limit (N-1)/N of the ratio.
    """
    mod2, n = _mod2(z), _pos_int(n_program, minimum=2)
    try:
        ratio = (n - 1) / n if abs(mod2 - 1.0) < 1e-12 else (1 - mod2 ** (n - 1)) / (1 - mod2**n)
    except OverflowError:
        raise InvalidParameter(f"|z|^(2N) overflows a float at z={complex(z)!r}, N={n}") from None
    return _probability(ratio * float(bnorm2))


def geometric_limit(z, bnorm2: float) -> float:
    """The infinite-program limit of `geometric_success`: bnorm2, divided by |z|^2 when |z| > 1."""
    mod2 = _mod2(z)
    return _probability(bnorm2 if mod2 <= 1 else bnorm2 / mod2)


# ---------------------------------------------------------------------------
# Errata register
# ---------------------------------------------------------------------------

# Misprints in the reference text found while verifying the closed forms
# against the branch-sum oracle. The implemented formulas are the corrected
# ones; `qproc verify` reports each entry as resolved rather than failing.
ERRATA = (
    {
        "id": "bz-success-denominator",
        "summary": (
            "general-N success formula for B(z) printed with denominator "
            "|z|^{2N} - 1; as printed it exceeds 1 for |z| < 1. Implemented "
            "with 1 - |z|^{2N}, which matches the branch-sum oracle and the "
            "(N-1)/N unitary limit."
        ),
        "status": "resolved (oracle)",
    },
    {
        "id": "vmc3-program-phases",
        "summary": (
            "4-dim program phase formula (1/2) e^{i(3-2j) alpha} contradicts "
            "the block table (middle two amplitudes swapped). The product "
            "encoding Xi(alpha) (x) Xi(2 alpha), confirmed by brute-force "
            "circuit simulation, is used instead."
        ),
        "status": "resolved (oracle)",
    },
)
