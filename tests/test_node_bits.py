"""Outcome-tree node arithmetic keeps its bits.

The functions a node is built from (`loops._state_independent`,
`qlinalg.inverse`, `zoo.program_for`, `loops._rescaled`,
`qlinalg.is_unitary`, `zoo.su2_program`) were rewritten with fewer numpy
calls, and then again to call the kernel that fixes each value's bits with
no wrapper around it (`loops._needed`, `loops._safe_ratio`, `loops._Exact`,
the u1, qid2 and diagonal rules, `qlinalg.su2_log`, `qlinalg.su2_exp`,
`qlinalg.normalize`, `qlinalg.phase_distance`, `zoo.diagonal_program`,
`zoo.vmc3_program`). Then every stage of a node build came to work on a
stack of nodes at once: the residual products and their norms, the
inverses, each family's rule, the branch operators and the rounds; and the
exact walk came to take the entries, collapse tests and children's residuals
and states of a whole level of nodes in stacked calls, and to fold the levels
bottom up; the qid2 rule came to take a batch's SU(2) steps stacked
(`qlinalg.su2_logs`, `zoo.su2_programs`), checked row by row against
`su2_log` and `su2_program` on Haar unitaries and on every branch of
`su2_log`; and a lone node, the step down a collapsed chain, came to take
one node's form in each stage again, checked down chains as deep as the
exact sweeps walk. The implementations they replaced are kept here as oracles, each
building one node at a time, and every float the stacked stages produce must match the
oracles' bit for bit: on real trees of all six loop families, each tree
level built as one batch, on stacks of 1 to 63 residuals with an
uncorrectable one in the middle, and on random inputs. The oracles are
called directly, never patched in, so a test cannot pass by patching a
function the build no longer calls.
"""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import cli, loops, processor, qlinalg, zoo
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


def _old_su2_exp(mu):
    mu = np.asarray(mu, dtype=float)
    m = np.linalg.norm(mu)
    mdotsig = mu[0] * qlinalg.SIGMA_X + mu[1] * qlinalg.SIGMA_Y + mu[2] * qlinalg.SIGMA_Z
    return np.cos(m) * qlinalg.SIGMA_0 + 1j * np.sinc(m / np.pi) * mdotsig


def _old_normalize(v):
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def _old_phase_distance(a, b):
    overlap = np.vdot(b, a)
    phi = np.angle(overlap) if overlap != 0 else 0.0
    return float(np.linalg.norm(a - np.exp(1j * phi) * b))


def _old_su2_log(u, tol=1e-8):
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not qlinalg.is_unitary(u, tol):
        raise qlinalg.NotUnitary("su2_log requires a 2x2 unitary")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    ang = float(np.angle(det))
    if ang >= np.pi - 1e-12:
        ang -= 2 * np.pi
    phase = ang / 2.0
    v = np.exp(-1j * phase) * u
    a0 = (v[0, 0] + v[1, 1]).real / 2.0
    a = np.array([((v[0, 1] + v[1, 0]) / 2j).real, ((v[0, 1] - v[1, 0]) / 2.0).real, ((v[0, 0] - v[1, 1]) / 2j).real])
    s = np.linalg.norm(a)
    mu = float(np.arctan2(s, a0))
    if s > 1e-12:
        vec = mu * a / s
    elif a0 > 0:
        vec = np.zeros(3)
    else:
        vec = np.array([np.pi, 0.0, 0.0])
    return vec, phase


def _old_diagonal_program(entries):
    e = np.asarray(entries, dtype=complex).reshape(-1)
    if np.linalg.norm(e) == 0:
        raise zoo.InvalidParameter("diagonal entries must not all vanish")
    k = _old_normalize(e)
    return zoo.ProgramState(ket=k, encoding="diagonal", params={"entries": tuple(complex(x) for x in k)})


def _old_u1_program(alpha):
    k = np.array([np.exp(1j * alpha), np.exp(-1j * alpha)]) / np.sqrt(2)
    return zoo.ProgramState(ket=k, encoding="u1", params={"alpha": float(alpha)})


def _old_vmc3_program(alpha):
    k = np.kron(_old_u1_program(alpha).ket, _old_u1_program(2 * alpha).ket)
    return zoo.ProgramState(ket=k, encoding="u1", params={"alpha": float(alpha), "program_qubits": 2})


def _old_safe_ratio(num, den):
    scale = np.abs(den).max()
    if scale == 0 or np.any(np.abs(den) <= 1e-12 * scale):
        raise loops.SingularProgram("applied operator has a vanishing diagonal entry")
    return num / den


def _old_needed(target, residual):
    if np.array_equal(residual, np.eye(residual.shape[0])):
        return target
    return target @ _old_inverse(residual)


class _OldExact(loops._Exact):
    def __init__(self, ops, state, success_idx, fail_idx):
        self.amps = np.einsum("bij,j->bi", ops, state)
        self.probs = np.einsum("bi,bi->b", np.conjugate(self.amps), self.amps).real.copy()
        self.s = float(self.probs[success_idx].sum())
        self.fails = [i for i in fail_idx if self.probs[i] > loops._PRUNE]
        self.collapses = None


def _old_u1_encode(proc, t, r):
    return _old_u1_program(float(((np.angle(t[0]) - np.angle(t[1])) - (np.angle(r[0]) - np.angle(r[1]))) / 2.0))


def _old_bz_encode(proc, t, r):
    m = _old_safe_ratio(t, r)
    corrected = not np.all(r == 1)
    if abs(m[0]) <= (1e-12 if corrected else 0.0) * abs(m).max():
        raise loops.SingularProgram("corrected ratio is unbounded (m00 ~ 0)")
    try:
        return zoo.geometric_program(complex(m[1] / m[0]), proc.program_dim)
    except zoo.InvalidParameter as exc:
        if corrected:
            raise loops.SingularProgram(f"corrected ratio is out of range: {exc}") from None
        raise


def _old_qid2_next_program(proc, target, residual):
    m = _old_needed(target, residual)
    with np.errstate(all="ignore"):
        u = m / np.sqrt(float(np.trace(np.conjugate(m).T @ m).real) / m.shape[0])
    return _old_su2_program(_old_su2_log(u)[0])


def _old_next_program(name: str):
    """The one-residual rule of a family as it was before rules encoded stacks: next(proc, target, residual)."""
    if name == "u1":
        return lambda proc, t, r: _old_u1_encode(proc, np.diagonal(t), np.diagonal(r))
    if name in ("bz", "bz_haar"):
        return lambda proc, t, r: _old_bz_encode(proc, np.diagonal(t), np.diagonal(r))
    if name == "diagonal":
        return lambda proc, t, r: _old_diagonal_program(_old_safe_ratio(np.diagonal(t), np.diagonal(r)))
    if name == "qid2":
        return _old_qid2_next_program
    return lambda proc, t, r: _old_program_for(_old_needed(t, r))


def _old_branch_operators(proc, program, basis):
    """One program's branch operators by np.tensordot's two products, or the gather on a 0/1 grid."""
    n, d = proc.program_dim, proc.data_dim
    if proc.gather is not None:
        ext = np.zeros(n + 1, dtype=complex)
        np.add(program.ket, 0.0, out=ext[:n])
        a_j = ext.take(proc.gather)
    else:
        a_j = np.dot(proc.blocks.transpose(0, 2, 3, 1).reshape(n * d * d, n), program.ket.reshape(n, 1))
    return np.dot(basis.bras, a_j.reshape(n, d * d)).reshape(n, d, d)


def _old_branch_probabilities(amps):
    return (np.conjugate(amps)[:, None, :] @ amps[:, :, None]).real.reshape(-1).tolist()


class _OldNode:
    """A node built alone by the oracles: residual, and unless uncorrectable its program and branch operators."""

    def __init__(self, name, proc, target, basis, residual):
        self.residual, self.program, self.ops = residual, None, None
        try:
            self.program = _old_next_program(name)(proc, target, residual)
        except (SingularOperator, loops.SingularProgram):
            return
        self.ops = _old_branch_operators(proc, self.program, basis)

    def child(self, name, proc, target, basis, i):
        return _OldNode(name, proc, target, basis, _old_rescaled(self.ops[i] @ self.residual))


def _old_exact(name, tree, node, state, n) -> float:
    """The exact success mass of n rounds from an oracle node, by the recursion the exact walk folds."""
    if node.program is None:
        return 0.0
    entry = _OldExact(node.ops, state, tree._success_idx, tree._fail_idx)
    if n == 1 or not entry.fails:
        return entry.s

    def below(i):
        kid = node.child(name, tree.proc, tree.target, tree.basis, i)
        return _old_exact(name, tree, kid, entry.amps[i] / np.sqrt(entry.probs[i]), n - 1)

    if _old_state_independent(node.ops, entry.probs):
        return entry.s + (1.0 - entry.s) * below(entry.fails[0])
    total = entry.s
    for i in entry.fails:
        total += entry.probs[i] * below(i)
    return total


def _new_entries(ops, states, success_idx, fail_idx) -> list:
    """`loops._entries` of a stack as one `_Exact` per node."""
    amps, probs, heads = loops._entries(ops, states, success_idx, fail_idx)
    return [loops._Exact(a, p, s, fails) for a, p, (s, fails, _) in zip(amps, probs, heads)]


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

def _params_record(params) -> list:
    """A program's params as arrays, with the key and the Python type of each value and element."""
    out = []
    for key, value in params.items():
        items = value if isinstance(value, tuple) else (value,)
        out += [np.asarray(key), np.asarray([type(x).__name__ for x in items]), np.asarray(value)]
    return out


def _node_record(tree, node, psi, amps=None, probs=None) -> list:
    """The arrays of one node: residual, and unless uncorrectable its program, operators, round, exact entry and collapse test."""
    out = [node.residual]
    if node.program is not None:
        old = amps is None
        if old:
            entry = _OldExact(node.ops, psi, tree._success_idx, tree._fail_idx)
            collapses = _old_state_independent(node.ops, entry.probs)
            amps = node.ops @ psi
            probs = _old_branch_probabilities(amps)
        else:
            entry = _new_entries(node.ops[None], psi[None], tree._success_idx, tree._fail_idx)[0]
            collapses = loops._state_independent(node.ops[None], entry.probs[None])[0]
        out += [node.program.ket, node.ops, amps, np.asarray(probs), entry.amps, entry.probs, np.asarray(entry.s)]
        out += [np.asarray(entry.fails, dtype=int), np.asarray(type(entry.s).__name__), np.asarray(collapses)]
        out += _params_record(node.program.params)
    return out


def _tree_records(tree, psi, depth: int, width: int) -> list:
    """Records of the nodes `depth` levels deep along the first `width` branches of each node, each level one batch."""
    records, level = [], [tree.root]
    for _ in range(depth):
        live = [node for node in level if node.program is not None]
        rounds = iter(tree.rounds_at(live, [psi] * len(live)))
        for node in level:
            held = next(rounds) if node.program is not None else None
            records.append(_node_record(tree, node, psi, *((held.amps, held.probs) if held else (None, []))))
        level = tree.children([(node, i) for node in live for i in range(min(width, node.ops.shape[0]))])
    return records


def _old_tree_records(name, tree, psi, depth: int, width: int) -> list:
    """`_tree_records` of the oracles, each node built alone."""
    records, level = [], [_OldNode(name, tree.proc, tree.target, tree.basis, np.eye(tree.proc.data_dim, dtype=complex))]
    for _ in range(depth):
        records += [_node_record(tree, node, psi) for node in level]
        level = [
            node.child(name, tree.proc, tree.target, tree.basis, i)
            for node in level
            if node.ops is not None
            for i in range(min(width, node.ops.shape[0]))
        ]
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
    """Each level of a real tree built as one batch equals the oracles' nodes built one at a time, and the exact walk their fold."""
    params = _family(name, derive_stream(seed, 0), n_dim)
    proc, rule, target = cli._FAMILIES[name].build(params, (seed, 0, 0))
    psi = qlinalg.random_state(proc.data_dim, derive_stream(seed, 1))
    tree = loops.OutcomeTree(proc, target, rule, psi)
    new, old = _tree_records(tree, psi, 3, 3), _old_tree_records(name, tree, psi, 3, 3)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert len(a) == len(b)
        assert all(_same_bits(x, y) for x, y in zip(a, b))
    # a tree that does not collapse enumerates N^(n-1) nodes in an n-round exact walk
    rounds = 4 if proc.program_dim <= 9 else 2
    fresh = loops.OutcomeTree(proc, target, rule, psi)
    assert _same_bits(loops.exact_walk(fresh, rounds), _old_exact(name, fresh, _OldNode(name, proc, target, fresh.basis, np.eye(proc.data_dim, dtype=complex)), psi, rounds))


def _enumerated_rounds(tree, n: int) -> int:
    """n, cut so that a tree that does not collapse (N - 1 failure branches a node at most) enumerates at most 800 nodes."""
    fanout = len(tree._fail_idx)
    while n > 1 and fanout ** (n - 1) > 800:
        n -= 1
    return n


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(FAMILIES), n_dim=st.integers(2, 3), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_exact_walk_moves_no_bit_with_the_batch_and_retained_bytes(name, n_dim, n, seed):
    """The exact walk gives the same bits whether its batches hold one node each (0 batch bytes), by the default
    budget or all at once, with every node kept or none, and they are the oracles' depth-first fold."""
    params = _family(name, derive_stream(seed, 0), n_dim)
    proc, rule, target = cli._FAMILIES[name].build(params, (seed, 0, 0))
    psi = qlinalg.random_state(proc.data_dim, derive_stream(seed, 1))
    n = _enumerated_rounds(loops.OutcomeTree(proc, target, rule, psi), n)
    values = set()
    for retained in (0, loops._RETAINED_BYTES):
        for batch in (0, loops._BATCH_BYTES, 10**18):
            with mock.patch.object(loops, "_RETAINED_BYTES", retained), mock.patch.object(loops, "_BATCH_BYTES", batch):
                values.add(loops.exact_walk(loops.OutcomeTree(proc, target, rule, psi), n).hex())
    tree = loops.OutcomeTree(proc, target, rule, psi)
    old = _old_exact(name, tree, _OldNode(name, proc, target, tree.basis, np.eye(proc.data_dim, dtype=complex)), psi, n)
    assert values == {float(old).hex()}


# The chains exact-grid walks: (family, params, its grid of round budgets). qidN targets are Haar-random.
DEEP_CHAINS = [
    ("qid2", {"mu": [0.2, -0.5, 0.9]}, [1, 2, 5, 10, 20, 50, 100, 200]),
    ("u1", {"alpha": 1.2}, [1, 2, 5, 10, 20, 40, 60]),
    *[("qidn", {"n_dim": d, "target_seed": seed}, [1, 2, 4, 8, 16]) for d in (2, 3, 4) for seed in (7, 11)],
    *[("diagonal", {"dim": d}, [1, 2, 5, 10, 20]) for d in range(3, 8)],
]


@pytest.mark.parametrize("name, params, grid", DEEP_CHAINS, ids=[f"{name}-{params}" for name, params, _ in DEEP_CHAINS])
def test_deep_chains_keep_their_bits(name, params, grid):
    """A collapsed chain walked down to exact-grid's depths, every node a lone build, equals the oracles node by node.

    One tree is walked at every budget of the grid, as a sweep walks it; each value must be the oracles' fold
    bit for bit. Then every node of the retained chain must hold the residual, program and branch operators of
    the oracle node built alone, and the exact entry of the oracle's state, and collapse.
    """
    proc, rule, target = cli._FAMILIES[name].build(params, (0, 0, 0))
    psi = cli._uniform_state(proc.data_dim)
    tree = loops.OutcomeTree(proc, target, rule, psi)
    root = _OldNode(name, proc, target, tree.basis, np.eye(proc.data_dim, dtype=complex))
    for n in grid:
        assert _same_bits(loops.exact_walk(tree, n), _old_exact(name, tree, root, psi, n))
    node, old, state = tree.root, root, psi
    for depth in range(grid[-1]):
        entry, want = node.exact, _OldExact(old.ops, state, tree._success_idx, tree._fail_idx)
        assert _same_bits(node.residual, old.residual) and _same_bits(node.program.ket, old.program.ket) and _same_bits(node.ops, old.ops)
        assert all(_same_bits(x, y) for x, y in zip(_params_record(node.program.params), _params_record(old.program.params)))
        assert _same_bits(entry.amps, want.amps) and _same_bits(entry.probs, want.probs)
        assert _same_bits(entry.s, want.s) and entry.fails == want.fails
        if depth == grid[-1] - 1:
            break
        assert entry.collapses and _old_state_independent(old.ops, want.probs)
        i = entry.fails[0]
        node, old, state = node.children[i], old.child(name, proc, target, tree.basis, i), want.amps[i] / np.sqrt(want.probs[i])


def _residuals(name: str, proc, k: int, rng) -> np.ndarray:
    """k residuals of the family's shape: scaled unitaries, non-unitary or diagonal matrices, and I first.

    The middle one cannot be corrected where the family has such residuals: a singular matrix for
    qid2 and qidN, a vanishing diagonal entry for bz and diagonal.
    """
    d = proc.data_dim
    if name in ("u1", "bz", "bz_haar", "diagonal"):
        out = np.array([np.diag(rng.uniform(0.2, 2.0, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))) for _ in range(k)])
    else:
        out = np.array([random_unitary(d, rng) * rng.uniform(0.5, 2.0) for _ in range(k)])
        if name == "qidn":
            out[1::2] = out[1::2] @ np.diag(rng.uniform(0.3, 1.0, d))  # not proportional to a unitary
    out[0] = np.eye(d)
    if k > 2 and name != "u1":
        out[k // 2, 0] = 0.0
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 8, 63])
@pytest.mark.parametrize("name, n_dim", [(name, 2) for name in FAMILIES[:-1]] + [("qidn", n) for n in range(2, 9)])
def test_batched_stages_keep_their_bits(name, n_dim, k):
    """Every stacked stage of a node build, on a stack of k, equals k single calls of the oracles bit for bit."""
    rng = derive_stream(k, n_dim, len(name))
    params = _family(name, rng, n_dim)
    if name == "qidn":  # a Haar target for odd k, one not proportional to a unitary for even k
        params = {"n_dim": n_dim, "target_seed": k} if k % 2 else {"n_dim": n_dim, "target": _pairs(random_unitary(n_dim, rng) @ np.diag(rng.uniform(0.3, 1.0, n_dim)))}
    proc, rule, target = cli._FAMILIES[name].build(params, (k, 0, 0))
    basis = rule.basis_for(proc)
    residuals = _residuals(name, proc, k, rng)
    steps = np.array([random_unitary(proc.data_dim, rng) * rng.uniform(0.1, 3.0) for _ in range(k)])

    assert _same_bits(qlinalg.frobenius_rows(steps), [np.linalg.norm(m) for m in steps])
    assert _same_bits(loops._rescaled(steps @ residuals), [_old_rescaled(m @ r) for m, r in zip(steps, residuals)])
    invs, refusals = qlinalg.inverses(residuals)
    assert len(refusals) == k
    for j, r in enumerate(residuals):
        old = _outcome(_old_inverse, r)
        assert (refusals[j] is None) == old[0]
        assert _same_bits(invs[j], old[1]) if old[0] else (type(refusals[j]), str(refusals[j])) == old[1:] and not invs[j].any()
    if name == "qidn":
        live = [j for j in range(k) if refusals[j] is None]
        vs = target @ invs[live]
        for new, v in zip(zoo.programs_for(vs), vs):
            old = _old_program_for(v)
            assert _same_bits(new.ket, old.ket) and _same_bits(new.params["d"], old.params["d"])
            assert new.params["scale"] == old.params["scale"] and type(new.params["scale"]) is float

    programs = rule.next_program(proc, target, residuals)
    assert len(programs) == k
    for program, r in zip(programs, residuals):
        old = _outcome(lambda x: _old_next_program(name)(proc, target, x), r)
        if not old[0]:
            assert (type(program), str(program)) == old[1:]
            continue
        assert _same_bits(program.ket, old[1].ket)
        assert all(_same_bits(x, y) for x, y in zip(_params_record(program.params), _params_record(old[1].params)))
    if k > 2 and name != "u1":
        assert isinstance(programs[k // 2], (SingularOperator, loops.SingularProgram))

    live = [p for p in programs if isinstance(p, zoo.ProgramState)]
    ops = processor.branch_operators(proc, live, basis)
    assert all(_same_bits(o, _old_branch_operators(proc, p, basis)) for o, p in zip(ops, live))
    states = [qlinalg.random_state(proc.data_dim, rng) for _ in live]
    nodes = [loops._Node(None, p) for p in live]
    for node, o in zip(nodes, ops):
        node.ops = o
    tree = loops.OutcomeTree(proc, target, rule, states[0])
    for held, o, state in zip(tree.rounds_at(nodes, states), ops, states):
        amps = o @ state
        assert _same_bits(held.amps, amps) and _same_bits(held.probs, _old_branch_probabilities(amps))


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
    assert loops._state_independent(ops[None], probs[None]) == [_old_state_independent(ops, probs)]


@settings(max_examples=100)
@given(
    k=st.integers(1, 40),
    n=st.integers(1, 16),
    d=st.integers(1, 8),
    noise=st.sampled_from([0.0, 1e-13, 3e-12, 1e-11, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_independent_tests_a_stack_of_nodes_as_each_alone(k, n, d, noise, seed):
    """One stacked test over every (node, branch) gives each node's answer alone, on nodes near and off isometries."""
    rng = derive_stream(seed, 14)
    ops = np.array([[random_unitary(d, rng) for _ in range(n)] for _ in range(k)]) * rng.uniform(0.1, 1.0, (k, n, 1, 1))
    ops = ops + noise * rng.uniform(0, 1, (k, 1, 1, 1)) * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape))
    probs = np.einsum("kbij,j->kb", np.abs(ops) ** 2, np.full(d, 1.0 / d))
    assert loops._state_independent(ops, probs) == [_old_state_independent(o, p) for o, p in zip(ops, probs)]


def test_state_independent_lets_a_nan_deviation_pass_as_before():
    ops = np.full((2, 2, 2), np.nan, dtype=complex)
    assert loops._state_independent(ops[None], np.ones((1, 2))) == [True] == [_old_state_independent(ops, np.ones(2))]


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


def _raised(value):
    """value, or its raise if it is the unraised refusal of a row that has none."""
    if isinstance(value, Exception):
        assert value.__traceback__ is None  # made as a value, never raised
        raise value
    return value


def _inverses_alone(m):
    """`qlinalg.inverses` on the stack of m alone: the inverse, or the refusal raised."""
    invs, refusals = qlinalg.inverses(m[None])
    assert len(refusals) == 1 and (refusals[0] is None or not invs[0].any())  # a refused row is 0
    return _raised(refusals[0] or invs[0])


def _needed_alone(target, r):
    """`loops._needed` on the stack of r alone: target @ r^-1, or the refusal raised."""
    needed, refusals = loops._needed(target, r[None])
    assert len(refusals) == 1
    return _raised(refusals[0] or needed[0])


def _check_inverse(m):
    old = _outcome(_old_inverse, m)
    for new in (_outcome(qlinalg.inverse, m), _outcome(_inverses_alone, m)):
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


@settings(max_examples=100)
@given(d=st.integers(1, 8), scale=_SCALES, seed=st.integers(0, 2**32 - 1))
def test_rescaled_and_is_unitary_keep_their_bits(d, scale, seed):
    rng = derive_stream(seed, 7)
    m = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    assert _same_bits(loops._rescaled(m[None])[0], _old_rescaled(m))
    u = random_unitary(d, rng)
    for tol in (1e-10, 1e-8):
        for x in (u, u + scale * 1e-10 * m, u + scale * 1e-8 * m, m):
            assert qlinalg.is_unitary(x, tol) == _old_is_unitary(x, tol)
    for x in (u.real, m.real, np.eye(d)):
        assert _same_bits(qlinalg.frobenius(x), np.linalg.norm(x))
        assert qlinalg.is_unitary(x, 1e-10) == _old_is_unitary(x, 1e-10)
    for x in (m[0].real, m.real.T, m[:, 0]):
        assert _same_bits(qlinalg.frobenius(x), np.linalg.norm(x))


_MU = st.one_of(
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-10]), min_size=3, max_size=3),
)


@settings(max_examples=200)
@given(mu=_MU)
def test_su2_program_keeps_its_bits(mu):
    new, old = zoo.su2_program(mu), _old_su2_program(mu)
    assert _same_bits(new.ket, old.ket)
    assert all(_same_bits(x, y) for x, y in zip(_params_record(new.params), _params_record(old.params)))
    assert _same_bits(qlinalg.su2_exp(mu), _old_su2_exp(mu))


def _complex_array(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


_U_SCALES = st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])


@settings(max_examples=300)
@given(
    mu=_MU,
    phase=st.floats(-4.0, 4.0),
    noise=st.sampled_from([0.0, 1e-12, 1e-9, 3e-9, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_su2_log_keeps_its_bits(mu, phase, noise, seed):
    """Unitaries near and at |mu| = 0 and pi, with a global phase, and perturbed ones on both sides of the check."""
    with np.errstate(all="ignore"):
        u = np.exp(1j * phase) * qlinalg.su2_exp(mu)
    u = u + _complex_array(derive_stream(seed, 8), (2, 2), noise)
    new, old = _outcome(qlinalg.su2_log, u), _outcome(_old_su2_log, u)
    assert new[0] == old[0]
    if new[0]:
        assert _same_bits(new[1][0], old[1][0]) and _same_bits(new[1][1], old[1][1])
        assert type(new[1][1]) is type(old[1][1])
    else:
        assert new[1:] == old[1:]


@pytest.mark.parametrize(
    "u",
    [np.eye(2), -np.eye(2), 1j * np.eye(2), qlinalg.SIGMA_X, qlinalg.SIGMA_Y, 1j * qlinalg.SIGMA_Z, np.diag([1j, 1j])],
    ids=["I", "-I", "iI", "X", "Y", "iZ", "diag-i"],
)
def test_su2_log_keeps_its_bits_on_branch_points(u):
    new, old = qlinalg.su2_log(u.astype(complex)), _old_su2_log(u.astype(complex))
    assert _same_bits(new[0], old[0]) and _same_bits(new[1], old[1])


@settings(max_examples=200)
@given(d=st.integers(1, 16), scale=_U_SCALES, real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_normalize_and_phase_distance_keep_their_bits(d, scale, real, seed):
    rng = derive_stream(seed, 9)
    v, w = _complex_array(rng, d, scale), _complex_array(rng, d, scale)
    if real:
        v, w = v.real, w.real
    with np.errstate(all="ignore"):
        new, old = _outcome(qlinalg.normalize, v), _outcome(_old_normalize, v)
        assert new[0] == old[0] and (_same_bits(new[1], old[1]) if new[0] else new[1:] == old[1:])
        for a, b in ((v, w), (v, v), (v, np.zeros(d)), (_complex_array(rng, (d, 2), 1.0), _complex_array(rng, (d, 2), 1.0))):
            assert _same_bits(qlinalg.phase_distance(a, b), _old_phase_distance(a, b))


@settings(max_examples=200)
@given(
    d=st.integers(1, 12),
    scale=_U_SCALES,
    zeros=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_program_keeps_its_bits(d, scale, zeros, seed):
    """Entries whose norm underflows to 0 or overflows to inf fail alike."""
    rng = derive_stream(seed, 10)
    e = _complex_array(rng, d, scale)
    e[: min(zeros, d)] = 0.0
    with np.errstate(all="ignore"):
        new, old = _outcome(zoo.diagonal_program, e), _outcome(_old_diagonal_program, e)
    assert new[0] == old[0]
    if new[0]:
        assert _same_bits(new[1].ket, old[1].ket)
        assert all(_same_bits(x, y) for x, y in zip(_params_record(new[1].params), _params_record(old[1].params)))
    else:
        assert new[1:] == old[1:]


@settings(max_examples=300)
@given(alpha=st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, np.pi, -np.pi, 1e300, -1e300])))
def test_u1_program_keeps_its_bits(alpha):
    new, old = zoo.u1_program(alpha), _old_u1_program(alpha)
    assert _same_bits(new.ket, old.ket) and new.params == old.params


@settings(max_examples=200)
@given(alpha=st.floats(-1e6, 1e6))
def test_vmc3_program_keeps_its_bits(alpha):
    new, old = zoo.vmc3_program(alpha), _old_vmc3_program(alpha)
    assert _same_bits(new.ket, old.ket) and new.params == old.params


@settings(max_examples=200)
@given(d=st.integers(1, 8), scale=_U_SCALES, zeros=st.integers(0, 8), identity=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_safe_ratio_and_needed_keep_their_bits(d, scale, zeros, identity, seed):
    rng = derive_stream(seed, 11)
    num, den = _complex_array(rng, d, 1.0), _complex_array(rng, d, scale)
    den[: min(zeros, d)] = 1e-13 * scale if zeros % 2 else 0.0
    with np.errstate(all="ignore"):
        new, old = _outcome(lambda x: _raised(loops._safe_ratio(num, x)), den), _outcome(lambda x: _old_safe_ratio(num, x), den)
    assert new[0] == old[0] and (_same_bits(new[1], old[1]) if new[0] else new[1:] == old[1:])
    target = _complex_array(rng, (d, d), 1.0)
    residual = np.eye(d, dtype=complex) if identity else _with_ratio(d, rng.uniform(1e-10, 1.0), seed)
    new, old = _outcome(lambda r: _needed_alone(target, r), residual), _outcome(lambda r: _old_needed(target, r), residual)
    assert new[0] == old[0] and (_same_bits(new[1], old[1]) if new[0] else new[1:] == old[1:])


@settings(max_examples=200)
@given(
    n=st.integers(2, 16),
    d=st.integers(1, 8),
    scale=_SCALES,
    n_success=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_entries_keep_their_bits(n, d, scale, n_success, seed):
    """One success label or several (bz), with failure branches on both sides of the prune bound."""
    rng = derive_stream(seed, 12)
    ops = _complex_array(rng, (n, d, d), scale)
    ops[rng.random(n) < 0.3] *= 1e-14
    state = qlinalg.random_state(d, rng)
    labels = rng.permutation(n).tolist()
    success, fail = sorted(labels[: min(n_success, n)]), sorted(labels[min(n_success, n) :])
    new, old = _new_entries(ops[None], state[None], success, fail)[0], _OldExact(ops, state, success, fail)
    assert _same_bits(new.amps, old.amps) and _same_bits(new.probs, old.probs)
    assert _same_bits(new.s, old.s) and type(new.s) is type(old.s) and new.fails == old.fails


@settings(max_examples=100)
@given(
    k=st.integers(1, 100),
    n=st.integers(1, 16),
    d=st.integers(1, 8),
    scale=_SCALES,
    n_success=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_exact_entries_keep_each_nodes_bits(k, n, d, scale, n_success, seed):
    """The entries of a stack of nodes, and the data states of their children, equal each node's own."""
    rng = derive_stream(seed, 15)
    ops = _complex_array(rng, (k, n, d, d), scale)
    ops[rng.random((k, n)) < 0.3] *= 1e-14
    states = np.array([qlinalg.random_state(d, rng) for _ in range(k)])
    labels = rng.permutation(n).tolist()
    success, fail = sorted(labels[: min(n_success, n)]), sorted(labels[min(n_success, n) :])
    news = _new_entries(ops, states, success, fail)
    for new, o, state in zip(news, ops, states):
        old = _OldExact(o, state, success, fail)
        assert _same_bits(new.amps, old.amps) and _same_bits(new.probs, old.probs)
        assert _same_bits(new.s, old.s) and type(new.s) is type(old.s) and new.fails == old.fails
    # the children's states: one stacked division, each with the bits of the walk's own
    amps, probs, _ = loops._entries(ops, states, success, fail)
    ks, js = rng.integers(0, k, 20).tolist(), rng.integers(0, n, 20).tolist()
    residuals = np.array([random_unitary(d, rng) for _ in range(k)])
    with np.errstate(all="ignore"):  # a branch of probability 0 divides by 0 alike
        seeds = loops._seeds(residuals, ops, amps, probs, ks, js)
        for row, kk, j in zip(seeds[1], ks, js):
            assert _same_bits(row, news[kk].amps[j] / np.sqrt(news[kk].probs[j]))
    for row, kk, j in zip(seeds[0], ks, js):
        assert _same_bits(row, _old_rescaled(ops[kk, j] @ residuals[kk]))


@settings(max_examples=200)
@given(
    t=st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
    r=st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
)
def test_u1_rule_keeps_its_bits(t, r):
    rule = loops.u1_rule()
    proc, target, residual = zoo.u1_cnot(), np.diag(t).astype(complex), np.diag(r).astype(complex)
    new, old = rule.next_program(proc, target, residual), _old_u1_encode(proc, np.diagonal(target), np.diagonal(residual))
    assert _same_bits(new.ket, old.ket) and _same_bits(new.params["alpha"], old.params["alpha"])


@settings(max_examples=200)
@given(mu=_MU, scale=_U_SCALES, noise=st.sampled_from([0.0, 1e-9, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_qid2_rule_keeps_its_bits(mu, scale, noise, seed):
    """Targets and residuals that are scaled unitaries, near them, or far, so that su2_log passes and fails."""
    rng = derive_stream(seed, 13)
    with np.errstate(all="ignore"):
        target = scale * qlinalg.su2_exp(mu) + _complex_array(rng, (2, 2), noise * scale)
    residual = random_unitary(2, rng) * rng.uniform(0.1, 10.0)
    proc, rule = zoo.qid2(), loops.qid2_rule()
    for r in (np.eye(2, dtype=complex), residual):
        with np.errstate(all="ignore"):  # su2_log's unitarity check warns on what a tiny target leaves, before and after
            new = _outcome(lambda x: rule.next_program(proc, target, x), r)
            old = _outcome(lambda x: _old_qid2_next_program(proc, target, x), r)
        assert new[0] == old[0]
        if new[0]:
            assert _same_bits(new[1].ket, old[1].ket)
            assert all(_same_bits(x, y) for x, y in zip(_params_record(new[1].params), _params_record(old[1].params)))
        else:
            assert new[1:] == old[1:]


# ---------------------------------------------------------------------------
# Stacked SU(2) steps: su2_logs and su2_programs row by row
# ---------------------------------------------------------------------------
#
# Measured with numpy 2.4.6 on an AVX-512 Xeon: numpy's complex array multiply differs from its scalar multiply
# (the u[0, 0] * u[1, 1] of `su2_log`) in 8818 of 20000 products of Haar-unitary entries, while det formed from
# real parts matched all 20000; `math.atan2` differs from `np.arctan2` in 1508 of 20000 cases. So `su2_logs` forms
# det from real parts and keeps every other step in numpy, and these tests hold it to the scalar steps' bits.

def _su2_edge_rows() -> list:
    """Unitaries at each branch of `su2_log`: s <= 1e-12 with a0 above and below 0, |mu| = pi, arg det at -pi and pi."""
    with np.errstate(all="ignore"):
        rows = [
            np.eye(2), np.exp(0.3j) * np.eye(2), qlinalg.su2_exp([1e-13, 0.0, 0.0]), qlinalg.su2_exp([0.0, 0.0, -1e-300]),  # |mu| -> 0
            -np.eye(2), qlinalg.su2_exp([np.pi, 0.0, 0.0]), qlinalg.su2_exp([0.0, -np.pi, 0.0]), np.exp(-2.0j) * qlinalg.su2_exp([0.0, 0.0, np.pi]),  # |mu| = pi
            np.diag([1j, 1j]), np.diag([-1j, -1j]), np.diag([1.0, -1.0]), 1j * qlinalg.SIGMA_X, -1j * qlinalg.SIGMA_Y,  # det -1, as +pi and -pi
            np.exp(0.5j * (np.pi - 1e-13)) * qlinalg.su2_exp([0.3, 0.1, -0.2]), np.exp(-0.5j * (np.pi - 1e-13)) * qlinalg.su2_exp([0.3, 0.1, -0.2]),
            np.exp(0.5j * np.pi) * qlinalg.su2_exp([0.0, 1.0, 0.0]), np.exp(-0.5j * np.pi) * qlinalg.su2_exp([1.0, 0.0, 0.0]),
            qlinalg.SIGMA_X, qlinalg.SIGMA_Y, 1j * qlinalg.SIGMA_Z, np.diag([1j, -1j]), np.diag([-1j, 1j]),
        ]
    return [np.asarray(u, dtype=complex) for u in rows]


def _signed_zero_unitaries() -> np.ndarray:
    """Every unitary whose entries have real and imaginary parts in {0, -0, 1, -1}: the signs of zeros that su2_log's
    complex divisions and sums keep reach mu."""
    parts = [0.0, -0.0, 1.0, -1.0]
    entries = np.array([complex(x, y) for x in parts for y in parts])
    grid = np.stack(np.meshgrid(entries, entries, entries, entries, indexing="ij"), -1).reshape(-1, 2, 2)
    deviation = np.linalg.norm(np.conjugate(grid).transpose(0, 2, 1) @ grid - np.eye(2), axis=(1, 2))
    return grid[deviation <= 1e-8]


def _su2_stack(k: int, seed: int) -> np.ndarray:
    """k Haar unitaries, each with a global phase and some with noise inside su2_log's check, then the edge rows."""
    rng = derive_stream(seed, 14)
    us = np.array([random_unitary(2, rng) * np.exp(1j * rng.uniform(-np.pi, np.pi)) for _ in range(k)])
    us[::3] += _complex_array(rng, (len(us[::3]), 2, 2), 1e-10)
    return np.concatenate([us, _signed_zero_unitaries(), np.array(_su2_edge_rows())])


def _assert_program_rows(programs, mus) -> None:
    assert len(programs) == len(mus)
    for new, mu in zip(programs, mus):
        old = zoo.su2_program(mu)
        assert _same_bits(new.ket, old.ket) and new.encoding == old.encoding
        assert all(_same_bits(x, y) for x, y in zip(_params_record(new.params), _params_record(old.params)))


def test_su2_logs_and_programs_keep_each_rows_bits_on_haar_unitaries_and_edge_rows():
    us = _su2_stack(2000, 0)
    mus, phases = qlinalg.su2_logs(us)
    assert mus.shape == (len(us), 3) and phases.shape == (len(us),)
    for u, mu, phase in zip(us, mus, phases):
        old_mu, old_phase = qlinalg.su2_log(u)
        assert _same_bits(mu, old_mu) and _same_bits(phase, np.float64(old_phase))
    _assert_program_rows(zoo.su2_programs(mus), mus)
    # the edge rows reach every branch: |mu| 0 (y == 0 in su2_programs) and pi, and arg det past pi - 1e-12 and at -pi
    norms = np.linalg.norm(mus[-len(_su2_edge_rows()) :], axis=1)
    assert (norms == 0).any() and (norms == np.pi).any()
    angles = [float(np.angle(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])) for u in _su2_edge_rows()]
    assert any(np.pi - 1e-12 <= a < np.pi for a in angles) and np.pi in angles and -np.pi in angles


@settings(max_examples=100)
@given(mus=st.lists(_MU, min_size=1, max_size=8))
def test_su2_programs_keep_each_rows_bits_at_zero_and_tiny_norms(mus):
    """Rows whose y = pi (|mu| / pi) is 0 (|mu| 0, or so small that |mu| / pi underflows), signed zeros and tiny norms."""
    _assert_program_rows(zoo.su2_programs(np.array(mus, dtype=float).reshape(-1, 3)), mus)


def test_su2_programs_take_sinc_1_where_y_is_0():
    mus = np.array([[0.0, 0.0, 0.0], [5e-324, 0.0, 0.0], [-0.0, 1e-320, -0.0], [0.2, -0.5, 0.9]])
    y = np.pi * (np.linalg.norm(mus, axis=1) / np.pi)
    assert (y[:3] == 0).all() and y[3] != 0
    _assert_program_rows(zoo.su2_programs(mus), mus)


@pytest.mark.parametrize("noise", [2e-8, 1e-3, np.nan])
def test_su2_logs_raises_not_unitary_as_su2_log_does(noise):
    """A row past su2_log's 1e-8 check fails the stack with su2_log's NotUnitary, wherever it sits."""
    us = _su2_stack(5, 1)
    for where in (0, 3, len(us) - 1):
        bad = us.copy()
        bad[where, 0, 1] += noise
        with pytest.raises(qlinalg.NotUnitary) as alone:
            for u in bad:
                qlinalg.su2_log(u)
        with pytest.raises(qlinalg.NotUnitary) as stacked:
            qlinalg.su2_logs(bad)
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(qlinalg.NotUnitary, match="2x2 unitary"):
        qlinalg.su2_logs(np.eye(3, dtype=complex)[None])


@pytest.mark.parametrize("k", [3, 4, 20, 100])
def test_qid2_rule_encodes_a_stack_as_each_residual_alone(k):
    """The qid2 rule's stacked encode, on Haar residuals with I first and a singular one in the middle, equals the
    one-residual oracle row by row; a non-unitary residual raises the oracle's NotUnitary."""
    rng = derive_stream(k, 15)
    proc, rule, target = zoo.qid2(), loops.qid2_rule(), qlinalg.su2_exp([0.2, -0.5, 0.9])
    residuals = _residuals("qid2", proc, k, rng)
    programs = rule.next_program(proc, target, residuals)
    for program, r in zip(programs, residuals):
        old = _outcome(lambda x: _old_qid2_next_program(proc, target, x), r)
        if not old[0]:
            assert (type(program), str(program)) == old[1:]
            continue
        assert _same_bits(program.ket, old[1].ket)
        assert all(_same_bits(x, y) for x, y in zip(_params_record(program.params), _params_record(old[1].params)))
    residuals[k - 1] = np.diag([1.0, 0.5])
    old = _outcome(lambda x: _old_qid2_next_program(proc, target, x), residuals[k - 1])
    assert old[1] is qlinalg.NotUnitary
    with pytest.raises(qlinalg.NotUnitary) as stacked:
        rule.next_program(proc, target, residuals)
    assert str(stacked.value) == old[2]
