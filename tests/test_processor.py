"""Unit tests for the generic processor engine."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import processor, zoo
from qproc.processor import (
    PROB_CUTOFF,
    DimensionMismatch,
    InvalidProcessor,
    ProcessorDefinition,
    ProgramBasis,
    ProgramState,
    assemble,
    branch_operators,
    decompose,
    inverse_cdf,
    inverse_cdf_many,
    select_branch,
)
from qproc.qlinalg import SIGMA_Y, is_unitary, random_state, random_unitary
from qproc.streams import derive_stream

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def _cnot_blocks():
    return np.array([[_P0, _P1], [_P1, _P0]])


def _all_processors():
    return [
        zoo.u1_cnot(),
        zoo.vmc3(),
        zoo.cyclic_shift_processor(4),
        zoo.qudit_diagonal_processor(3),
        zoo.amp_modifier_processor(3, 4),
        zoo.qid2(),
        zoo.qidN(2),
        zoo.qidN(3),
    ]


def test_assemble_cnot():
    proc = assemble(_cnot_blocks())
    # data register is the control qubit
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.array_equal(proc.global_unitary(), cnot)


def test_assemble_rejects_incomplete_blocks():
    bad = np.zeros((2, 2, 2, 2), dtype=complex)
    bad[0, 0] = np.eye(2)
    with pytest.raises(InvalidProcessor):
        assemble(bad)


def _einsum_deviation(blocks):
    """The completeness sums written out block by block; the reference for `assemble`'s check."""
    n, d = blocks.shape[0], blocks.shape[2]
    eye = np.einsum("kl,bc->klbc", np.eye(n), np.eye(d))
    left = np.einsum("jkab,jlac->klbc", np.conjugate(blocks), blocks)
    right = np.einsum("kjab,ljcb->klac", blocks, np.conjugate(blocks))
    return max(np.abs(left - eye).max(), np.abs(right - eye).max())


# (15, 9): 135 rows, so the check runs a full block of processor._CHECK_ROWS
# (128) and a partial one.
@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (4, 3), (2, 5), (9, 3), (15, 9)])
@pytest.mark.parametrize("eps", [1e-11, 1e-7, 1e-3])
def test_assemble_deviation_matches_einsum_oracle(n, d, eps):
    rng = derive_stream(401, n, d)
    g = random_unitary(d * n, rng)
    blocks = g.reshape(d, n, d, n).transpose(1, 3, 0, 2)
    blocks = blocks + eps * (rng.standard_normal(blocks.shape) + 1j * rng.standard_normal(blocks.shape))
    want = _einsum_deviation(blocks)
    # `assemble` accepts exactly the grids whose deviation is within tol.
    assemble(blocks, tol=want + 1e-15)
    with pytest.raises(InvalidProcessor):
        assemble(blocks, tol=want - 1e-15)
    if want > 1e-9:
        with pytest.raises(InvalidProcessor):
            assemble(blocks)


def test_assemble_sees_a_defect_in_the_last_rows_alone():
    # Scaling grid row (N-1, D-1) puts the largest deviation on the last
    # diagonal entry of G G^dag, which only the final, partial row block forms.
    n, d = 15, 9
    g = random_unitary(d * n, derive_stream(402))
    blocks = g.reshape(d, n, d, n).transpose(1, 3, 0, 2).copy()
    blocks[n - 1, :, d - 1, :] *= 1 + 1e-6
    want = _einsum_deviation(blocks)
    assemble(blocks, tol=want + 1e-15)
    with pytest.raises(InvalidProcessor):
        assemble(blocks, tol=want - 1e-15)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_assemble_rejects_non_finite_grid(value):
    blocks = _cnot_blocks().astype(complex)
    blocks[1, 1, 0, 1] = value
    with pytest.raises(InvalidProcessor, match="nan"):
        assemble(blocks)


def test_assemble_rejects_malformed_grid():
    with pytest.raises(ValueError):
        assemble(np.zeros((2, 3, 2, 2)))


def test_assemble_cyclic_shift_grid():
    # 4-block grid: G = |0><0| (x) I + |1><1| (x) (cyclic shift), 8x8 unitary
    proc = zoo.cyclic_shift_processor(4)
    shift = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        shift[j, (j + 1) % 4] = 1.0
    want = np.kron(_P0, np.eye(4)) + np.kron(_P1, shift)
    g = proc.global_unitary()
    assert np.array_equal(g, want)
    assert is_unitary(g, 1e-10)


def test_program_operator_u1():
    # the computational basis gives the program operators A_j(program) = sum_k <k|program> A_jk
    proc = zoo.u1_cnot()
    alpha = 0.7
    a = branch_operators(proc, zoo.u1_program(alpha), ProgramBasis.computational(2))
    assert np.allclose(a[0], zoo.u1_operator(alpha) / np.sqrt(2), atol=1e-15)
    assert np.allclose(a[1], zoo.u1_operator(-alpha) / np.sqrt(2), atol=1e-15)


def test_program_operator_general_program():
    proc = zoo.u1_cnot()
    c = np.array([0.6, 0.8j])
    a = branch_operators(proc, ProgramState(ket=c), ProgramBasis.computational(2))
    assert np.allclose(a[0], np.diag(c), atol=1e-15)
    assert np.allclose(a[1], np.diag(c[::-1]), atol=1e-15)


def test_decompose_cnot_half_half():
    proc = zoo.u1_cnot()
    rng = derive_stream(200)
    for _ in range(20):
        dec = decompose(proc, random_state(2, rng), zoo.u1_program(rng.uniform(0, 2 * np.pi)))
        assert np.allclose(dec.probabilities(), [0.5, 0.5], atol=1e-12)


def test_decompose_degenerate_program_single_branch():
    # program equal to a measurement-basis vector: one branch, direct gate application
    proc = zoo.qid2()
    bell = ProgramBasis(vectors=zoo.bell_basis(), labels=("I", "x", "y", "z"))
    psi = np.array([0.6, 0.8])
    dec = decompose(proc, psi, ProgramState(ket=zoo.bell_basis()[2]), bell)
    probs = dec.probabilities()
    assert abs(probs[2] - 1.0) <= 1e-12 and probs[[0, 1, 3]].max() <= 1e-12
    # branches below the probability cutoff carry no post-state
    assert dec.branches[0].post_state is None
    # sigma_y applied directly to the data
    want = SIGMA_Y @ psi
    assert np.allclose(dec.branches[2].post_state, want / np.linalg.norm(want), atol=1e-12)


def test_decompose_four_equal_branches_qid2():
    proc, basis = zoo.qid2(), zoo.qid2_basis()
    rng = derive_stream(201)
    mu = rng.uniform(-1, 1, size=3)
    dec = decompose(proc, random_state(2, rng), zoo.su2_program(mu), basis)
    assert np.allclose(dec.probabilities(), 0.25, atol=1e-12)


def test_decompose_requires_normalized_state():
    with pytest.raises(ValueError, match="normalized"):
        decompose(zoo.u1_cnot(), np.array([1.0, 1.0]), zoo.u1_program(0.1))


def test_decompose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        decompose(zoo.u1_cnot(), np.ones(3) / np.sqrt(3), zoo.u1_program(0.1))


def test_branch_probabilities_sum_to_one():
    rng = derive_stream(202)
    for proc in _all_processors():
        for _ in range(100):
            psi = random_state(proc.data_dim, rng)
            xi = ProgramState(ket=random_state(proc.program_dim, rng))
            dec = decompose(proc, psi, xi)
            assert abs(sum(dec.probabilities()) - 1.0) <= 1e-9


def test_decompose_reconstruction():
    # sum_b (A_b psi) (x) |b> reproduces G (psi (x) program) entrywise
    rng = derive_stream(203)
    for proc in (zoo.u1_cnot(), zoo.qid2(), zoo.qidN(3)):
        g = proc.global_unitary()
        for _ in range(5):
            psi = random_state(proc.data_dim, rng)
            xi = ProgramState(ket=random_state(proc.program_dim, rng))
            basis = ProgramBasis.computational(proc.program_dim)
            dec = decompose(proc, psi, xi, basis)
            joint = sum(
                np.kron(b.operator @ psi, basis.vectors[j]) for j, b in enumerate(dec.branches)
            )
            assert np.linalg.norm(joint - g @ np.kron(psi, xi.ket)) <= 1e-10


def test_decompose_basis_covariant():
    # mixing the basis vectors mixes the branch operators the same way
    rng = derive_stream(204)
    for proc in (zoo.u1_cnot(), zoo.qidN(2)):
        n = proc.program_dim
        xi = ProgramState(ket=random_state(n, rng))
        base = ProgramBasis.computational(n)
        mix = random_unitary(n, rng)
        mixed = ProgramBasis(vectors=mix @ base.vectors, labels=base.labels)
        ops = branch_operators(proc, xi, base)
        mixed_ops = branch_operators(proc, xi, mixed)
        want = np.tensordot(np.conjugate(mix), ops, axes=([1], [0]))
        assert np.abs(mixed_ops - want).max() <= 1e-12


def test_sample_degenerate_certainty():
    proc = zoo.qid2()
    bell = ProgramBasis(vectors=zoo.bell_basis(), labels=("I", "x", "y", "z"))
    rng = derive_stream(205)
    branch = select_branch(decompose(proc, np.array([0.6, 0.8]), ProgramState(ket=zoo.bell_basis()[0]), bell), rng)
    assert branch.label == "I"
    assert np.allclose(branch.post_state, [0.6, 0.8], atol=1e-12)


def test_sample_frequency_cnot():
    proc = zoo.u1_cnot()
    xi = zoo.u1_program(0.4)
    psi = np.array([0.6, 0.8])
    rng = derive_stream(206)
    trials = 20000
    zeros = sum(select_branch(decompose(proc, psi, xi), rng).label == "0" for _ in range(trials))
    sigma = np.sqrt(0.25 / trials)
    assert abs(zeros / trials - 0.5) <= 3 * sigma


def test_sample_frequency_bz_vs_decompose_oracle():
    z = np.sqrt(0.5)
    proc = zoo.cyclic_shift_processor(4)
    xi = zoo.geometric_program(z, 4)
    psi = np.ones(2) / np.sqrt(2)
    exact = sum(b.probability for b in decompose(proc, psi, xi).branches[:3])
    rng = derive_stream(207)
    trials = 20000
    hits = sum(select_branch(decompose(proc, psi, xi), rng).label != "3" for _ in range(trials))
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert abs(hits / trials - exact) <= 3 * sigma


def test_sample_reproducible():
    proc, xi = zoo.u1_cnot(), zoo.u1_program(0.9)
    psi = np.array([0.6, 0.8])
    seq1 = [select_branch(decompose(proc, psi, xi), derive_stream(208, t)).label for t in range(50)]
    seq2 = [select_branch(decompose(proc, psi, xi), derive_stream(208, t)).label for t in range(50)]
    assert seq1 == seq2


def test_inverse_cdf_walks_branches_in_order():
    assert inverse_cdf([0.25, 0.5, 0.25], 0.0) == (0, 0.25)
    assert inverse_cdf([0.25, 0.5, 0.25], 0.25) == (1, 0.5)
    assert inverse_cdf([0.25, 0.5, 0.25], 0.8) == (2, 0.25)


def test_inverse_cdf_falls_back_to_last_branch_above_cutoff():
    # rounding can leave the uniform at or above the accumulated mass
    assert inverse_cdf([0.3, 0.2, PROB_CUTOFF / 10], 0.5) == (1, 0.2)
    assert inverse_cdf([0.3, 0.2, 0.0], 0.9) == (1, 0.2)
    assert inverse_cdf([0.0, 0.4, PROB_CUTOFF / 2], 0.99) == (1, 0.4)


def test_inverse_cdf_never_picks_a_branch_below_cutoff():
    assert inverse_cdf([PROB_CUTOFF / 2, 1.0], 0.0) == (1, 1.0)


def test_inverse_cdf_raises_when_no_branch_qualifies():
    with pytest.raises(ValueError):
        inverse_cdf([PROB_CUTOFF / 2, 0.0, PROB_CUTOFF / 3], 0.1)
    with pytest.raises(ValueError):
        inverse_cdf([], 0.1)


def test_inverse_cdf_stops_at_the_drawn_branch():
    seen = []

    def probs():
        for p in (0.5, 0.25, 0.25):
            seen.append(p)
            yield p

    assert inverse_cdf(probs(), 0.1) == (0, 0.5)
    assert seen == [0.5]


def _boundaries(probs):
    """The running sums of the walk: r exactly on them tests the strict r < mass."""
    acc, out = 0.0, []
    for p in probs:
        if p >= PROB_CUTOFF:
            acc += p
            out.append(acc)
    return out


_PROB = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, PROB_CUTOFF / 2, PROB_CUTOFF, 1 / 3]))


@settings(max_examples=200)
@given(
    probs=st.lists(_PROB, min_size=1, max_size=8),
    uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
)
def test_inverse_cdf_many_matches_inverse_cdf(probs, uniforms):
    if all(p < PROB_CUTOFF for p in probs):
        with pytest.raises(ValueError):
            inverse_cdf_many(probs, np.array(uniforms))
        return
    bounds = _boundaries(probs)
    r = np.array([*uniforms, *bounds, *np.nextafter(bounds, 0.0), 0.0, bounds[-1] + 0.25])
    want = [inverse_cdf(probs, x)[0] for x in r]
    assert inverse_cdf_many(probs, r).tolist() == want


def test_inverse_cdf_many_edges():
    probs = (0.25, PROB_CUTOFF / 2, 0.5, 0.0, 0.2)
    r = np.array([0.0, 0.25, 0.75, 0.9, 0.95, 0.99])
    # 0.25 and 0.75 sit on a boundary and move on; 0.99 lies past the total and falls back to the last branch
    assert inverse_cdf_many(probs, r).tolist() == [0, 2, 4, 4, 4, 4]
    with pytest.raises(ValueError):
        inverse_cdf_many([PROB_CUTOFF / 2, 0.0], np.array([0.1]))
    with pytest.raises(ValueError):
        inverse_cdf_many([], np.array([0.1]))


def test_program_state_requires_normalized_ket():
    with pytest.raises(ValueError):
        ProgramState(ket=np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "ket", [[np.nan, 0.0], [np.inf, 0.0], [1e200, 0.0], [np.nan, 1.0]],
    ids=["nan", "inf", "norm-overflows", "nan-beside-one"],
)
def test_program_state_rejects_a_non_finite_ket(ket):
    with pytest.raises(ValueError, match="normalized"):
        ProgramState(ket=np.array(ket))


def test_program_state_holds_a_read_only_copy():
    amps = np.array([0.6, 0.8])
    xi = ProgramState(ket=amps)
    amps[0] = 5.0
    assert xi.ket.tolist() == [0.6, 0.8] and not xi.ket.flags.writeable


def test_program_basis_requires_orthonormal():
    with pytest.raises(ValueError):
        ProgramBasis(vectors=np.array([[1, 0], [1, 0]], dtype=complex), labels=("a", "b"))
    # outcomes are told apart (and loop trees keyed) by label
    with pytest.raises(ValueError):
        ProgramBasis(vectors=np.eye(2, dtype=complex), labels=("a", "a"))


def test_computational_basis_is_shared_per_dimension():
    assert ProgramBasis.computational(3) is ProgramBasis.computational(3)
    assert ProgramBasis.computational(3).labels == ("0", "1", "2")


def test_blocks_are_immutable():
    proc = zoo.u1_cnot()
    with pytest.raises(ValueError):
        proc.blocks[0, 0, 0, 0] = 5.0


# ---------------------------------------------------------------------------
# Block storage: (N, D, D, N) contiguous, exposed as an (N, N, D, D) view
# ---------------------------------------------------------------------------

def _old_branch_operators(blocks, amps, basis):
    """branch_operators as computed over a C-contiguous (N, N, D, D) grid."""
    a_j = np.tensordot(np.ascontiguousarray(blocks), amps, axes=([1], [0]))
    return np.tensordot(np.conjugate(basis.vectors), a_j, axes=([1], [0]))


def _old_global_unitary(blocks):
    n, d = blocks.shape[0], blocks.shape[2]
    return np.ascontiguousarray(blocks).transpose(2, 0, 3, 1).reshape(d * n, d * n)


def _haar_grid(n, d, seed):
    """A Haar-random G on data (x) program, with its block grid."""
    g = random_unitary(d * n, derive_stream(405, n, d, seed))
    return g, g.reshape(d, n, d, n).transpose(1, 3, 0, 2)


def _check_layout(proc, rng):
    n = proc.program_dim
    assert proc.blocks.shape == (n, n, proc.data_dim, proc.data_dim)
    # The program input axis is last in memory, so tensordot reshapes without a copy.
    assert proc.blocks.transpose(0, 2, 3, 1).flags.c_contiguous
    assert not proc.blocks.flags.writeable
    with pytest.raises(ValueError):
        proc.blocks.setflags(write=True)
    assert _old_global_unitary(proc.blocks).tobytes() == proc.global_unitary().tobytes()
    mixed = ProgramBasis(vectors=random_unitary(n, rng), labels=tuple(map(str, range(n))))
    for basis in (ProgramBasis.computational(n), mixed):
        for _ in range(3):
            amps = random_state(n, rng)
            got = branch_operators(proc, amps, basis)
            assert got.tobytes() == _old_branch_operators(proc.blocks, amps, basis).tobytes()


@pytest.mark.parametrize("proc", [*_all_processors(), zoo.qidN(4), zoo.qidN(8)], ids=lambda p: p.label)
def test_zoo_blocks_keep_their_bytes_in_contraction_layout(proc):
    _check_layout(proc, derive_stream(406, proc.program_dim, proc.data_dim))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_haar_processor_completeness_and_reconstruction(n, d, seed):
    g, blocks = _haar_grid(n, d, seed)
    proc = assemble(blocks)
    assert proc.global_unitary().tobytes() == np.ascontiguousarray(g).tobytes()
    _check_layout(proc, derive_stream(407, seed))
    rng = derive_stream(408, seed)
    psi = random_state(d, rng)
    xi = ProgramState(ket=random_state(n, rng))
    dec = decompose(proc, psi, xi)
    assert abs(sum(dec.probabilities()) - 1.0) <= 1e-9
    joint = sum(np.kron(b.operator @ psi, np.eye(n)[j]) for j, b in enumerate(dec.branches))
    assert np.linalg.norm(joint - g @ np.kron(psi, xi.ket)) <= 1e-10


@pytest.mark.parametrize("n, d", [(2, 2), (3, 4), (8, 8)])
def test_plain_block_processor_decomposes_like_the_assembled_one(n, d):
    g, blocks = _haar_grid(n, d, 0)
    plain = ProcessorDefinition(data_dim=d, program_dim=n, blocks=np.ascontiguousarray(blocks), label="plain")
    proc = assemble(blocks)
    rng = derive_stream(409, n, d)
    for _ in range(3):
        psi = random_state(d, rng)
        xi = ProgramState(ket=random_state(n, rng))
        want, got = decompose(proc, psi, xi), decompose(plain, psi, xi)
        assert [b.probability for b in got.branches] == [b.probability for b in want.branches]
        for b, w in zip(got.branches, want.branches):
            assert b.operator.tobytes() == w.operator.tobytes()
        joint = sum(np.kron(b.operator @ psi, np.eye(n)[j]) for j, b in enumerate(got.branches))
        assert np.linalg.norm(joint - g @ np.kron(psi, xi.ket)) <= 1e-10


# ---------------------------------------------------------------------------
# Gather on 0/1 grids, and the stacked branch probabilities
# ---------------------------------------------------------------------------

# Signed and exact zeros, negatives and subnormals: the parts where a gather
# could differ from the dense product in a bit.
_EDGE_PARTS = np.array([0.0, -0.0, 1.0, -1.0, 0.6, -2.5, 5e-324, -5e-324, 1e-300, -3e7])


def _check_gather_bits(proc, rng):
    n = proc.program_dim
    kets = 40 if n <= 16 else 10  # the reference product on qidN(8) reads 4 MiB
    mixed = ProgramBasis(vectors=random_unitary(n, rng), labels=tuple(map(str, range(n))))
    for basis in (ProgramBasis.computational(n), mixed):
        for _ in range(kets):
            amps = rng.choice(_EDGE_PARTS, n) + 1j * rng.choice(_EDGE_PARTS, n)
            got = branch_operators(proc, amps, basis)
            assert got.tobytes() == _old_branch_operators(proc.blocks, amps, basis).tobytes()


@pytest.mark.parametrize("proc", [*_all_processors(), zoo.qidN(4), zoo.qidN(8)], ids=lambda p: p.label)
def test_gather_matches_the_dense_product_bit_for_bit(proc):
    # Every zoo grid is 0/1 except qid2's.
    assert (proc.gather is None) == (proc.label == "qid2")
    assert proc.gather is None or not proc.gather.flags.writeable
    _check_gather_bits(proc, derive_stream(410, proc.program_dim, proc.data_dim))


def _with_first_entry(proc, value):
    blocks = np.array(proc.blocks)
    blocks[tuple(np.argwhere(blocks != 0)[0])] = value
    return assemble(blocks, label=f"{proc.label} with {value!r}")


@pytest.mark.parametrize(
    "make",
    [
        lambda: assemble(_haar_grid(3, 2, 1)[1]),
        lambda: _with_first_entry(zoo.qidN(2), -1.0),
        lambda: _with_first_entry(zoo.cyclic_shift_processor(3), np.exp(0.7j)),
        lambda: _with_first_entry(zoo.u1_cnot(), 1.0 - 2.0**-52),
        lambda: ProcessorDefinition(data_dim=2, program_dim=2, blocks=_cnot_blocks(), label="plain cnot"),
    ],
    ids=["haar", "minus-one", "phase", "just-below-one", "not-assembled"],
)
def test_grids_that_are_not_0_1_keep_the_dense_product(make):
    proc = make()
    assert proc.gather is None
    _check_gather_bits(proc, derive_stream(411, proc.program_dim, proc.data_dim))


@settings(max_examples=60)
@given(n=st.integers(1, 70), d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
def test_branch_probabilities_are_the_bits_of_vdot(n, d, seed):
    rng = derive_stream(412, seed)
    a = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    a *= 10.0 ** rng.uniform(-150, 2, size=(n, 1))
    a.real[rng.random((n, d)) < 0.2] = -0.0
    a.imag[rng.random((n, d)) < 0.2] = 0.0
    got = processor.branch_probabilities(a)
    assert np.array(got).tobytes() == np.array([float(np.vdot(r, r).real) for r in a]).tobytes()
    assert all(type(p) is float for p in got)


# ---------------------------------------------------------------------------
# 0/1 grids: checked as permutations, every other grid by the dense products
# ---------------------------------------------------------------------------

_ZERO_ONE_BUILDERS = [
    (zoo.u1_cnot, ()),
    (zoo.vmc3, ()),
    (zoo.cyclic_shift_processor, (2,)),
    (zoo.cyclic_shift_processor, (512,)),
    (zoo.amp_modifier_processor, (3, 4)),
    (zoo.qudit_diagonal_processor, (5,)),
    (zoo.qidN, (2,)),
    (zoo.qidN, (8,)),
]


@pytest.mark.parametrize("build, args", _ZERO_ONE_BUILDERS, ids=lambda x: getattr(x, "__name__", str(x)))
def test_zero_one_zoo_processors_assemble_without_the_dense_check(build, args, monkeypatch):
    def dense(m):
        raise AssertionError("dense completeness check ran")

    monkeypatch.setattr(processor, "_completeness_deviation", dense)
    proc = build.__wrapped__(*args)  # past the zoo's cache, so the grid is assembled here
    assert proc.gather is not None
    assert np.array_equal(proc.gather, build(*args).gather)


def _grid_matrix(blocks) -> np.ndarray:
    """The (N*D) x (D*N) matrix M that `assemble` checks."""
    n, d = blocks.shape[0], blocks.shape[2]
    return np.array(np.asarray(blocks).transpose(0, 2, 3, 1)).reshape(n * d, d * n)


def _defective(kind: str) -> np.ndarray:
    """cyclic_shift(3)'s blocks with one 1 of M dropped, duplicated or moved, still a 0/1 grid with a gather map."""
    n, d = 3, 2
    m = _grid_matrix(zoo.cyclic_shift_processor(3).blocks)
    r, c = np.argwhere(m != 0)[0]
    other = (c + n) % (d * n)  # another data column b, so the (N*D*D, N) grid row it lands in was empty
    if kind in ("dropped", "moved"):
        m[r, c] = 0
    if kind in ("duplicated", "moved"):
        m[r, other] = 1
    return m.reshape(n, d, d, n).transpose(0, 3, 1, 2)


@pytest.mark.parametrize(
    "make, message",
    [
        (zoo.qid2.__wrapped__, None),
        (lambda: assemble(_haar_grid(3, 2, 1)[1]), None),
        (lambda: assemble(_defective("dropped")), "completeness sums deviate by 1.000e+00 (> 1.0e-09)"),
        (lambda: assemble(_defective("duplicated")), "completeness sums deviate by 1.000e+00 (> 1.0e-09)"),
        (lambda: assemble(_defective("moved")), "completeness sums deviate by 1.000e+00 (> 1.0e-09)"),
    ],
    ids=["qid2", "haar", "dropped", "duplicated", "moved"],
)
def test_other_grids_keep_the_dense_check_and_its_message(make, message, monkeypatch):
    dense, calls = processor._completeness_deviation, []
    monkeypatch.setattr(processor, "_completeness_deviation", lambda m: calls.append(m) or dense(m))
    if message is None:
        make()
    else:
        with pytest.raises(InvalidProcessor) as exc:
            make()
        assert str(exc.value) == message
    assert calls


@pytest.mark.parametrize("kind", ["dropped", "duplicated", "moved"])
def test_defective_grids_are_still_0_1(kind):
    blocks = _defective(kind)
    assert processor._gather_index(np.array(blocks.transpose(0, 2, 3, 1)).reshape(-1, 3)) is not None


def test_a_permutation_grid_deviates_by_exactly_zero():
    with pytest.raises(InvalidProcessor, match=r"deviate by 0\.000e\+00 \(> -1\.0e\+00\)"):
        assemble(_cnot_blocks(), tol=-1.0)
