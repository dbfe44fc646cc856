"""Outcome-tree node arithmetic keeps its bits.

The functions a node is built from (`loops._state_independent`,
`qlinalg.inverse`, `zoo.weyl_program`, `zoo.program_for`, `loops._rescaled`,
`qlinalg.is_unitary`, `zoo.su2_program`) were rewritten with fewer numpy
calls. The implementations they replaced are kept here as oracles, and every
float they produce must match the oracle's bit for bit, on real trees of all
six loop families and on random inputs.
"""
from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import cli, loops, qlinalg, zoo
from qproc.qlinalg import SingularOperator, random_unitary
from qproc.streams import derive_stream


# ---------------------------------------------------------------------------
# Oracles: the implementations the rewritten functions replaced
# ---------------------------------------------------------------------------

def _old_isometry_deviations(ops, probs):
    eye = np.eye(ops.shape[2])
    return [np.linalg.norm(np.conjugate(m).T @ m - p * eye) for m, p in zip(ops, probs)]


def _old_state_independent(ops, probs):
    return not any(dev > 1e-11 for dev in _old_isometry_deviations(ops, probs))


def _old_inverse(m):
    if m.shape[0] != m.shape[1]:
        raise ValueError("inverse requires a square matrix")
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0 or s[-1] <= qlinalg.TOL_SINGULAR * s[0]:
        raise SingularOperator(f"singular value ratio {s[-1]:.3e}/{s[0]:.3e} below threshold")
    return np.linalg.inv(m)


def _old_weyl_program(d, scale):
    d = np.asarray(d, dtype=complex)
    k = np.tensordot(d, zoo._bell_stack(d.shape[0]), axes=([0, 1], [0, 1]))
    return zoo.ProgramState(ket=k, encoding="weyl", params={"d": d, "scale": float(scale), "n_dim": d.shape[0]})


def _old_weyl_expansion(v):
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    if np.linalg.norm(v) < 1e-12:
        raise zoo.ZeroOperator("cannot expand the zero operator")
    return np.einsum("mkij,ij->mk", np.conjugate(zoo._weyl_stack(n)), v) / n


def _old_program_for(v):
    v = np.asarray(v, dtype=complex)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise zoo.ZeroOperator("cannot encode the zero operator")
    scale = norm / np.sqrt(v.shape[0])
    return _old_weyl_program(_old_weyl_expansion(v / scale), scale)


def _old_rescaled(residual):
    norm = np.linalg.norm(residual)
    if norm == 0:
        raise loops.SingularProgram("residual collapsed to zero")
    return residual * (np.sqrt(residual.shape[0]) / norm)


def _old_is_unitary(m, tol=1e-10):
    if m.shape[0] != m.shape[1]:
        return False
    delta = qlinalg.dagger(m) @ m - np.eye(m.shape[0])
    return np.linalg.norm(delta) <= tol


def _old_su2_program(mu):
    mu = np.asarray(mu, dtype=float).reshape(3)
    m = np.linalg.norm(mu)
    xis = zoo.bell_basis()
    k = np.cos(m) * xis[0] + 1j * np.sinc(m / np.pi) * (mu[0] * xis[1] + mu[1] * xis[2] + mu[2] * xis[3])
    return zoo.ProgramState(ket=k, encoding="su2", params={"mu": tuple(float(x) for x in mu)})


@contextlib.contextmanager
def _oracles():
    """Every rewritten function, where the outcome tree looks it up, replaced by its oracle."""
    with contextlib.ExitStack() as stack:
        for target, new in (
            (loops, {"inverse": _old_inverse, "_rescaled": _old_rescaled, "_state_independent": _old_state_independent}),
            (zoo, {"program_for": _old_program_for, "su2_program": _old_su2_program}),
            (qlinalg, {"is_unitary": _old_is_unitary}),
        ):
            stack.enter_context(mock.patch.multiple(target, **new))
        yield


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind not in "fc":
        return np.array_equal(a, b)
    return np.array_equal(a.reshape(-1).view(np.int64), b.reshape(-1).view(np.int64))


# ---------------------------------------------------------------------------
# Real trees of all six loop families
# ---------------------------------------------------------------------------

def _node_record(node, psi) -> list:
    """The arrays of one node: residual, and unless uncorrectable its program, operators and collapse test."""
    out = [node.residual]
    if node.program is not None:
        probs = loops._Exact(node.ops, psi, [], []).probs
        out += [node.program.ket, node.ops, np.asarray(loops._state_independent(node.ops, probs))]
        d = node.program.params.get("d")
        if d is not None:
            out.append(d)
    return out


def _tree_records(tree, psi, depth: int, width: int) -> list:
    """Records of the nodes `depth` levels deep along the first `width` branches of each node."""
    records, level = [], [tree.root]
    for _ in range(depth):
        below = []
        for node in level:
            records.append(_node_record(node, psi))
            if node.ops is not None:
                below += [tree.child(node, i, retain=False) for i in range(min(width, node.ops.shape[0]))]
        level = below
    return records


def _pairs(a: np.ndarray) -> list:
    """A complex array as the config's [re, im] pairs."""
    return np.stack((a.real, a.imag), -1).tolist()


def _family(name: str, rng, n_dim: int) -> dict:
    """The config params of one loop family, drawn from rng (qidn: of dimension n_dim)."""
    if name == "u1":
        return {"alpha": rng.uniform(-np.pi, np.pi)}
    if name in ("bz", "bz_haar"):
        return {"z": [rng.uniform(-2, 2), rng.uniform(-2, 2)], "n_program": int(rng.integers(2, 6))}
    if name == "diagonal":
        dim = int(rng.integers(2, 6))
        return {"entries": _pairs(rng.uniform(0.2, 1.0, dim) * np.exp(1j * rng.uniform(-np.pi, np.pi, dim)))}
    if name == "qid2":
        return {"mu": rng.uniform(-1.5, 1.5, 3).tolist()}
    if rng.random() < 0.5:
        return {"n_dim": n_dim, "target_seed": int(rng.integers(0, 100))}
    # a target that is not proportional to a unitary: the walk does not collapse
    return {"n_dim": n_dim, "target": _pairs(random_unitary(n_dim, rng) @ np.diag(rng.uniform(0.3, 1.0, n_dim)))}


FAMILIES = ("u1", "bz", "bz_haar", "diagonal", "qid2", "qidn")


@pytest.mark.parametrize("name, n_dim", [(name, 2) for name in FAMILIES[:-1]] + [("qidn", n) for n in range(2, 9)])
@settings(max_examples=4)
@given(seed=st.integers(0, 2**32 - 1))
def test_tree_nodes_keep_their_bits(name, n_dim, seed):
    rng = derive_stream(seed, 0)
    proc, rule, target = cli._FAMILIES[name].build(_family(name, rng, n_dim), (seed, 0, 0))
    psi = qlinalg.random_state(proc.data_dim, derive_stream(seed, 1))
    # a tree that does not collapse enumerates N^(n-1) nodes in an n-round exact walk
    rounds = 4 if proc.program_dim <= 9 else 2

    def records():
        tree = loops.OutcomeTree(proc, target, rule, psi)
        return _tree_records(tree, psi, 3, 3), loops.exact_walk(loops.OutcomeTree(proc, target, rule, psi), rounds)

    new, new_exact = records()
    with _oracles():
        old, old_exact = records()
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert len(a) == len(b)
        assert all(_same_bits(x, y) for x, y in zip(a, b))
    assert _same_bits(new_exact, old_exact)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

_SCALES = st.floats(1e-8, 10.0)


@settings(max_examples=200)
@given(
    n=st.integers(1, 64),
    d=st.integers(1, 8),
    scale=_SCALES,
    noise=st.sampled_from([0.0, 1e-13, 1e-12, 3e-12, 1e-11, 1e-6, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_isometry_deviations_keep_their_bits(n, d, scale, noise, seed):
    """Stacks near and far from scaled isometries, so that both answers of the collapse test occur."""
    rng = derive_stream(seed, 2)
    ops = np.array([random_unitary(d, rng) for _ in range(n)]) * (scale * rng.uniform(0.1, 1.0, (n, 1, 1)))
    ops = ops + noise * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape))
    if rng.random() < 0.5:  # the probabilities on the uniform state, as the exact walk reads them
        probs = np.einsum("bij,j->b", np.abs(ops) ** 2, np.full(d, 1.0 / d))
    else:
        probs = scale**2 * rng.uniform(0, 1, n)
    assert _same_bits(loops._isometry_deviations(ops, probs), _old_isometry_deviations(ops, probs))
    assert loops._state_independent(ops, probs) == _old_state_independent(ops, probs)


def test_state_independent_lets_a_nan_deviation_pass_as_before():
    ops = np.full((2, 2, 2), np.nan, dtype=complex)
    assert loops._state_independent(ops, np.ones(2)) is True is _old_state_independent(ops, np.ones(2))


def _with_ratio(d: int, ratio: float, seed: int) -> np.ndarray:
    """U diag(s) V^dag with singular values from 1 down to `ratio`, the middle ones spread between."""
    rng = derive_stream(seed, 3)
    s = np.concatenate(([1.0], rng.uniform(ratio, 1.0, d - 2), [ratio])) if d > 1 else np.array([1.0])
    return (random_unitary(d, rng) * s) @ random_unitary(d, rng).conj().T * rng.uniform(1e-3, 1e3)


def _outcome(f, m):
    """f(m) as (True, result) or (False, exception class, message)."""
    try:
        return True, f(m)
    except (SingularOperator, np.linalg.LinAlgError, ValueError) as exc:
        return False, type(exc), str(exc)


def _check_inverse(m):
    new, old = _outcome(qlinalg.inverse, m), _outcome(_old_inverse, m)
    assert new[0] == old[0]
    if new[0]:
        assert _same_bits(new[1], old[1])
    else:
        assert new[1:] == old[1:]


@settings(max_examples=300)
@given(d=st.integers(2, 12), ratio=st.floats(0.5e-9, 4e-9), seed=st.integers(0, 2**32 - 1))
def test_inverse_keeps_its_bits_and_decision_across_the_threshold(d, ratio, seed):
    _check_inverse(_with_ratio(d, ratio, seed))


@settings(max_examples=100)
@given(d=st.integers(1, 16), scale=_SCALES, seed=st.integers(0, 2**32 - 1))
def test_inverse_keeps_its_bits_on_random_matrices(d, scale, seed):
    rng = derive_stream(seed, 4)
    _check_inverse(scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))


@pytest.mark.parametrize(
    "m",
    [np.zeros((3, 3)), np.ones((3, 3)), np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [2.0, 4.0]])],
    ids=["zero", "ones", "rank-one-diag", "rank-one"],
)
def test_inverse_of_a_singular_matrix_raises_as_before(m):
    _check_inverse(m.astype(complex))
    with pytest.raises(SingularOperator):
        qlinalg.inverse(m.astype(complex))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 0)])
def test_inverse_of_a_non_finite_matrix_behaves_as_before(value, where):
    m = np.eye(2, dtype=complex)
    m[where] = value
    with np.errstate(all="ignore"):
        _check_inverse(m)
    full = np.full((2, 2), value, dtype=complex)
    with np.errstate(all="ignore"):
        _check_inverse(full)


def test_inverse_skips_the_svd_on_a_well_conditioned_matrix():
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("svd ran")):
        qlinalg.inverse(random_unitary(4, derive_stream(5, 5)))


@settings(max_examples=100)
@given(n=st.integers(2, 8), scale=_SCALES, seed=st.integers(0, 2**32 - 1))
def test_program_for_keeps_its_bits(n, scale, seed):
    rng = derive_stream(seed, 6)
    v = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    new, old = zoo.program_for(v), _old_program_for(v)
    assert _same_bits(new.ket, old.ket) and _same_bits(new.params["d"], old.params["d"])
    assert new.params["scale"] == old.params["scale"] and new.params["n_dim"] == old.params["n_dim"]
    d = new.params["d"]
    assert _same_bits(zoo.weyl_program(d.T, 1.0).ket, _old_weyl_program(d.T, 1.0).ket)  # a non-contiguous d
    assert _same_bits(zoo.weyl_expansion(v), _old_weyl_expansion(v))


@settings(max_examples=100)
@given(d=st.integers(1, 8), scale=_SCALES, seed=st.integers(0, 2**32 - 1))
def test_rescaled_and_is_unitary_keep_their_bits(d, scale, seed):
    rng = derive_stream(seed, 7)
    m = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    assert _same_bits(loops._rescaled(m), _old_rescaled(m))
    u = random_unitary(d, rng)
    for tol in (1e-10, 1e-8):
        for x in (u, u + scale * 1e-10 * m, u + scale * 1e-8 * m, m):
            assert qlinalg.is_unitary(x, tol) == _old_is_unitary(x, tol)
    for x in (u.real, m.real, np.eye(d)):
        assert _same_bits(qlinalg.frobenius(x), np.linalg.norm(x))
        assert qlinalg.is_unitary(x, 1e-10) == _old_is_unitary(x, 1e-10)


_MU = st.one_of(
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-10]), min_size=3, max_size=3),
)


@settings(max_examples=200)
@given(mu=_MU)
def test_su2_program_keeps_its_bits(mu):
    assert _same_bits(zoo.su2_program(mu).ket, _old_su2_program(mu).ket)
