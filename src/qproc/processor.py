"""Generic programmable-processor engine.

A processor is a fixed unitary G on data (x) program space, stored as the
N x N grid of D x D blocks A_jk with G = sum_jk A_jk (x) |j><k|. Running the
processor on (psi, program) and measuring the program register in some
orthonormal basis splits the evolution into measurement branches, each with
a branch operator acting on the data alone. This module assembles and
validates processors, decomposes runs into branches and samples outcomes;
the concrete constructions live in `zoo`.

All types are immutable after construction and safe to share across tasks;
`decompose` is pure and `select_branch` touches only the caller-supplied RNG
stream (derive independent streams per task via `streams.derive_stream`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Iterable, Mapping

import numpy as np

from . import qlinalg

# Branches below this probability carry no post-state and are never
# sampled; normalizing them would amplify numerical noise.
PROB_CUTOFF = 1e-12

_COMPLETENESS_TOL = 1e-9
_INPUT_NORM_TOL = 1e-8
# Rows of each completeness product formed at once in `assemble`'s check.
_CHECK_ROWS = 128


class InvalidProcessor(ValueError):
    """Block grid violates the completeness sums (G would not be unitary)."""


class DimensionMismatch(ValueError):
    """State or basis dimension does not match the processor."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ProgramState:
    """A normalized program-register ket plus its encoding metadata.

    `encoding` tags which parameterization produced the ket: one of
    "u1", "su2", "diagonal", "geometric", "weyl", "raw". `params` holds the
    plain-Python parameters of that encoding (angles, complex ratios, ...),
    which is what gets serialized into traces.
    """

    ket: np.ndarray
    encoding: str = "raw"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        v = np.array(self.ket, dtype=complex).reshape(-1)
        if not qlinalg.is_normalized(v, tol=_INPUT_NORM_TOL):  # a nan or inf amplitude fails too
            raise ValueError("program ket must be normalized")
        v.setflags(write=False)
        object.__setattr__(self, "ket", v)

    @property
    def dim(self) -> int:
        return self.ket.shape[0]


@dataclass(frozen=True)
class ProgramBasis:
    """Orthonormal measurement basis for the program register."""

    vectors: np.ndarray  # shape (N, N); vectors[i] is the i-th basis ket
    labels: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("basis must hold N vectors of dimension N")
        if len(self.labels) != v.shape[0]:
            raise ValueError("one label per basis vector required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")
        gram = np.conjugate(v) @ v.T
        if np.linalg.norm(gram - np.eye(v.shape[0])) > _COMPLETENESS_TOL:
            raise ValueError("basis vectors are not orthonormal")
        object.__setattr__(self, "vectors", _readonly(v))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def bras(self) -> np.ndarray:
        """conj(vectors), read-only: row i is the bra <i|, built once per basis."""
        return _readonly(np.conjugate(self.vectors))

    @classmethod
    @lru_cache(maxsize=32)
    def computational(cls, dim: int) -> "ProgramBasis":
        """The computational basis, labels "0".."dim-1"; one shared instance per dim."""
        return cls(np.eye(dim, dtype=complex), tuple(str(j) for j in range(dim)))


@dataclass(frozen=True)
class Branch:
    label: str
    operator: np.ndarray  # D x D branch operator A_b(program)
    probability: float
    post_state: np.ndarray | None  # None when probability < PROB_CUTOFF


@dataclass(frozen=True)
class BranchDecomposition:
    branches: tuple[Branch, ...]

    def probabilities(self) -> np.ndarray:
        return np.array([b.probability for b in self.branches])

    @cached_property
    def probability_tuple(self) -> tuple[float, ...]:
        """Branch probabilities in label order, built once for repeated draws."""
        return tuple(b.probability for b in self.branches)

    def by_label(self, label: str) -> Branch:
        for b in self.branches:
            if b.label == label:
                return b
        raise KeyError(label)


@dataclass(frozen=True)
class ProcessorDefinition:
    """Block form of a programmable processor.

    blocks[j, k] is the D x D operator A_jk; validity means both
    completeness sums hold: sum_j A_jk1^dag A_jk2 = I delta_k1k2 and
    sum_j A_k1j A_k2j^dag = I delta_k1k2 (equivalently G is unitary).
    Construct through `assemble`, which checks them on the stored grid in
    row blocks, without forming G. An assembled
    processor's `blocks` is a read-only (N, N, D, D) view of one
    C-contiguous grid stored in (N, D, D, N) order, program input index k
    last, which is the layout `branch_operators` contracts over; any array
    of the right shape also works, at the cost of a copy per contraction.

    `gather`, set by `assemble` on a 0/1 grid (each row of the (N*D*D, N)
    grid holds at most one nonzero entry, an exact 1), maps each row to the
    program index of its 1, and an empty row to N. It is None on any other
    grid, such as qid2's or a Haar grid, and without `assemble`.
    """

    data_dim: int
    program_dim: int
    blocks: np.ndarray  # shape (N, N, D, D)
    label: str = ""
    gather: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def global_unitary(self) -> np.ndarray:
        """Materialize G = sum_jk A_jk (x) |j><k| as a (D*N) x (D*N) matrix."""
        d, n = self.data_dim, self.program_dim
        return self.blocks.transpose(2, 0, 3, 1).reshape(d * n, d * n)


def _completeness_deviation(m: np.ndarray) -> float:
    """Largest |entry| of m m^dag - I and of m^dag m - I, for a square m, _CHECK_ROWS rows at a time.

    With x = m, then x = m^T, each block conj(x[rows]) @ x^T is the
    conjugate of those rows of x x^dag, that is of m m^dag, then of
    m^T conj(m) = conj(m^dag m); |conj(z) - 1| = |z - 1|, so the identity is
    subtracted on the block's diagonal as is. The check holds one block of
    (_CHECK_ROWS, n) at a time and never copies m whole.
    """
    n = m.shape[0]
    dev = 0.0
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, which fails the check
        for x in (m, m.T):
            for r0 in range(0, n, _CHECK_ROWS):
                block = np.conjugate(x[r0 : r0 + _CHECK_ROWS]) @ x.T
                diag = np.arange(block.shape[0])
                block[diag, r0 + diag] -= 1.0
                dev = np.maximum(dev, np.abs(block).max())  # a nan stays
    return float(dev)


def assemble(blocks, label: str = "", tol: float = _COMPLETENESS_TOL) -> ProcessorDefinition:
    """Validate a block grid and wrap it as a ProcessorDefinition.

    `blocks` is anything shaped (N, N, D, D). It is copied once, into
    read-only (N, D, D, N) storage, and the processor's `blocks` is the
    (N, N, D, D) view of that copy, so `branch_operators` reshapes it to
    an (N*D*D, N) matrix without copying (see ProcessorDefinition). The two
    completeness sums are the blocks of G^dag G and G G^dag. The stored grid,
    viewed as an (N*D) x (D*N) matrix M, is G with its rows permuted (grid
    row (j, a) is row (a, j) of G), so M^dag M = G^dag G and M M^dag is
    G G^dag with rows and columns permuted alike: both sums are checked on M,
    a few rows of each product at a time (`_completeness_deviation`), unless
    M is a 0/1 permutation, whose deviation is exactly 0 (`_is_permutation`).
    Raises InvalidProcessor when either sum deviates from identity by more
    than tol (largest absolute entry) or holds a nan. A valid 0/1 grid also
    gets its `gather` map.
    """
    b = np.asarray(blocks, dtype=complex)
    if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3]:
        raise ValueError("blocks must form an N x N grid of D x D operators")
    grid = np.array(b.transpose(0, 2, 3, 1), order="C")  # (N, D, D, N)
    grid.setflags(write=False)
    proc = ProcessorDefinition(
        data_dim=b.shape[2], program_dim=b.shape[0], blocks=grid.transpose(0, 3, 1, 2), label=label
    )
    m = grid.reshape(grid.shape[0] * grid.shape[1], -1)
    gather = _gather_index(grid.reshape(-1, grid.shape[-1]))
    dev = 0.0 if gather is not None and _is_permutation(m) else _completeness_deviation(m)
    if not dev <= tol:  # a nan entry fails
        raise InvalidProcessor(f"completeness sums deviate by {dev:.3e} (> {tol:.1e})")
    object.__setattr__(proc, "gather", gather)
    return proc


def _is_permutation(m: np.ndarray) -> bool:
    """Whether every row and column of the 0/1 matrix m holds one 1: then, and only then, m m^dag = m^dag m = I exactly."""
    ones = m != 0
    return bool((ones.sum(axis=0) == 1).all() and (ones.sum(axis=1) == 1).all())


def _gather_index(rows: np.ndarray) -> np.ndarray | None:
    """Read-only column of each row's one entry, N for an empty row; None unless every entry is 0 or exactly 1."""
    nonzero = rows != 0
    if nonzero.sum(axis=1).max() > 1 or not np.all(rows[nonzero] == 1):
        return None
    index = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), rows.shape[1])
    index.setflags(write=False)
    return index


def branch_operators(proc: ProcessorDefinition, xi, basis: ProgramBasis) -> np.ndarray:
    """All branch operators A_b = sum_j <b|j> A_j, shape (N, D, D), with A_j = sum_k <k|program> A_jk.

    `xi` is a ProgramState or a ket, or a list of K ProgramStates, which
    gives the (K, N, D, D) stack of their branch operators, each with the
    bits of its program alone. The bits are those of np.tensordot's two
    products: the stored (N, D, D, N) grid as an (N*D*D, N) matrix times
    the program as an (N, 1) column, then the basis bras times the
    (N, D*D) matrix of A_j; numpy forms each product of a stack with the
    BLAS call it makes for one, and one program takes np.dot's, which
    costs less than a stack of one. On a 0/1 grid
    (`ProcessorDefinition.gather`) the first product is a gather instead:
    each entry of A_j is one program amplitude (1*x is exact) or none (a
    sum of exact zeros), and adding +0.0 gives a zero the sign the
    product's sum gives it. Other grids form the product.
    """
    if isinstance(xi, list):
        kets = stacked([p.ket for p in xi])
    else:
        kets = xi.ket if isinstance(xi, ProgramState) else qlinalg.ket(xi)
    n, d = proc.program_dim, proc.data_dim
    if kets.shape[-1] != n:
        raise DimensionMismatch("program dimension does not match processor")
    if basis.dim != n:
        raise DimensionMismatch("basis dimension does not match processor")
    if kets.ndim == 1:
        if proc.gather is not None:
            ext = np.zeros(n + 1, dtype=complex)  # ext[n] stays 0: the slot of the empty rows
            np.add(kets, 0.0, out=ext[:n])
            a_j = ext.take(proc.gather)
        else:
            a_j = np.dot(proc.blocks.transpose(0, 2, 3, 1).reshape(n * d * d, n), kets.reshape(n, 1))
        return np.dot(basis.bras, a_j.reshape(n, d * d)).reshape(n, d, d)
    k = kets.shape[0]
    if proc.gather is not None:
        ext = np.zeros((k, n + 1), dtype=complex)
        np.add(kets, 0.0, out=ext[:, :n])
        a_j = ext.take(proc.gather, axis=1)
    else:
        a_j = _products(proc.blocks.transpose(0, 2, 3, 1).reshape(n * d * d, n), kets[:, :, None])
    return _products(basis.bras, a_j.reshape(k, n, d * d)).reshape(k, n, d, d)


def _products(a: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """np.dot(a, x) for each x of the stack, bit for bit.

    numpy's matmul makes, for each x, the BLAS call np.dot makes, except
    when a has one column: np.dot then multiplies by a 1 x 1 factor as a
    scalar (BLAS axpy), and so it is called for each x.
    """
    return np.matmul(a, stack) if a.shape[1] > 1 else np.array([np.dot(a, x) for x in stack])


def stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """Equal-shaped arrays as one stack along a new first axis: a view of a lone array, else a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def data_state(proc: ProcessorDefinition, psi) -> np.ndarray:
    """psi as a 1-d complex ket: DimensionMismatch off the data dimension, ValueError unless normalized (so finite)."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape[0] != proc.data_dim:
        raise DimensionMismatch("data state dimension does not match processor")
    if not qlinalg.is_normalized(v, tol=_INPUT_NORM_TOL):
        raise ValueError("data state must be normalized")
    return v


def decompose(
    proc: ProcessorDefinition,
    psi: np.ndarray,
    xi,
    basis: ProgramBasis | None = None,
) -> BranchDecomposition:
    """Split one processor run into measurement branches.

    Branch b carries operator A_b, probability ||A_b psi||^2 and the
    normalized post-state; probabilities sum to 1 for a valid processor.
    The basis defaults to the computational program basis. The amplitudes
    are one stacked `ops @ psi` and the probabilities `branch_probabilities`,
    the arithmetic of a sampled loop round.
    """
    psi = data_state(proc, psi)
    if basis is None:
        basis = ProgramBasis.computational(proc.program_dim)
    ops = branch_operators(proc, xi, basis)
    ops.setflags(write=False)  # each branch keeps a view of the stack
    amps = ops @ psi
    branches = []
    for op, label, amp, p in zip(ops, basis.labels, amps, branch_probabilities(amps)):
        post = amp / np.sqrt(p) if p >= PROB_CUTOFF else None
        branches.append(Branch(label=label, operator=op, probability=p, post_state=post))
    return BranchDecomposition(branches=tuple(branches))


def branch_probabilities(amps: np.ndarray) -> list:
    """||a||^2 for each row a of the (N, D) stack, with the bits of float(np.vdot(a, a).real), from one call.

    `np.vecdot` hands each row to the BLAS `zdotc` that `np.vdot` calls. A
    (K, N, D) stack of such stacks gives one list per (N, D) stack.
    """
    return np.vecdot(amps, amps).real.tolist()


def inverse_cdf(probabilities: Iterable[float], r: float) -> tuple[int, float]:
    """Index and probability of the branch that a uniform r in [0, 1) selects.

    Walks the branch probabilities in label order, skipping those below
    PROB_CUTOFF, and stops at the first branch whose cumulative mass exceeds
    r; when rounding leaves r at or above the total, the last branch above
    the cutoff is chosen. `probabilities` may be lazy: nothing after the
    chosen branch is consumed. Raises ValueError when no branch qualifies.
    """
    acc = 0.0
    chosen = None
    for i, p in enumerate(probabilities):
        if p < PROB_CUTOFF:
            continue
        chosen, chosen_p = i, p
        acc += p
        if r < acc:
            break
    if chosen is None:
        raise ValueError("no branch has probability above the cutoff")
    return chosen, chosen_p


def inverse_cdf_many(probabilities: Iterable[float], r: np.ndarray) -> np.ndarray:
    """`inverse_cdf` branch index for every uniform in the array r.

    The cumulative masses come from the same sequential walk, so each index
    equals inverse_cdf(probabilities, r[i])[0] bit for bit: the first
    qualifying branch with r < cumulative mass, else the last qualifying one.
    Raises ValueError when no branch qualifies.
    """
    chosen, cums = [], []
    acc = 0.0
    for i, p in enumerate(probabilities):
        if p < PROB_CUTOFF:
            continue
        acc += p
        chosen.append(i)
        cums.append(acc)
    if not chosen:
        raise ValueError("no branch has probability above the cutoff")
    # side="right": the first mass strictly above r
    pos = np.searchsorted(cums, r, side="right")
    return np.asarray(chosen)[np.minimum(pos, len(chosen) - 1)]


def select_branch(dec: BranchDecomposition, rng: np.random.Generator) -> Branch:
    """Inverse-CDF draw over branches in label order; sub-cutoff branches never fire."""
    i, _ = inverse_cdf(dec.probability_tuple, rng.random())
    return dec.branches[i]

