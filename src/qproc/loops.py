"""Conditional-loop execution: repeat a processor with corrected programs.

A failed run leaves the data in (branch operator) @ psi for a known, heralded
branch operator. Each correction rule re-encodes "target composed with the
inverse of everything applied so far" in its family's program encoding, so
that the next successful branch restores proportionality to the target. The
residual (the accumulated applied operator) is tracked as a matrix and the
comparison is always up to global phase. The u1, bz and diagonal rules read
only diagonals; their tree checks once that target and processor are diagonal.

The program of round k+1 is fixed by the outcomes of rounds 1..k: it
depends neither on the data state nor on the RNG. An `OutcomeTree`, built
from one (processor, target, rule), is therefore the whole loop: it holds one
node per outcome history (residual, program or an "uncorrectable" marker,
and read-only branch operators), built lazily on first visit; callers build
one tree per loop. Retained node arrays are capped at `_RETAINED_BYTES` per
tree; nodes past the cap are built and used but not kept, and nodes are
offered to the cap in the order the walks build them. Nothing is cached
between trees, and a trajectory's output does not depend on what the tree
already holds.

The walks build nodes in batches (`OutcomeTree.children`): the residual
products and their norms, the inverses, the qidN encoding, the branch
operators and, in `run_trials`, the rounds are each one stacked numpy call
for the whole batch (the other rules' scalar steps, such as `su2_log`, run
per residual), and each node keeps the bits it has when built alone. A lone
node is a batch of one.

A tree is of one of two kinds, and each kind has its own walks; a walk
given a tree of the other kind raises ValueError.

- Without a data state, `OutcomeTree(proc, target, rule)`, when each
  trajectory brings a fresh one (a Haar-random psi per trial):
  `run_loop(tree, psi, max_rounds, rng)` samples one trajectory from psi,
  computing each round afresh.
- With the state every trajectory starts from, `OutcomeTree(proc, target,
  rule, psi)`: `run_trials(tree, max_rounds, n, draw)` samples n
  trajectories together and `exact_walk(tree, n)` evaluates the first n
  rounds exactly, so the exact values at many round budgets and the sampled
  trajectories of one loop share one tree's nodes; `exact_success` is that
  walk on a fresh tree.

A sampled round does not split every branch. It applies the node's stacked
branch operators to the state in one product, computes all branch
probabilities from one stacked product (`processor.branch_probabilities`),
draws a label by `processor.inverse_cdf` (the walk `select_branch` also
uses), and normalizes only the chosen post-state. `decompose` forms the same
two products, so a round draws the same label, probability and post-state as
`select_branch(decompose(...))` on the same stream.

On a tree with a state the outcomes fix the state at each node too, so a
node's round is computed once. The first trajectory to reach a node stores
the product, the branch probabilities and the LoopRound of the branch it
drew; later ones draw a uniform over the stored probabilities and reuse the
stored rounds, post-states included, and the stored LoopTrace of a
trajectory that ends there. Each stored value comes from the same expression
on the same inputs, so a trajectory's trace is byte-identical to `run_loop`'s
from the same state on the same stream, on a tree without a state.

`run_trials` walks its n trajectories depth first as groups that share an
outcome history: at a node it draws each member's next uniform (`draw(j)`,
for trajectory j), splits the group by the drawn branch, and builds a child
only when its subgroup is popped. Groups are popped from the top of the
stack in batches, as many as have missing nodes within `_BATCH_BYTES`, and
their nodes are built together. A node past the cap is then built once per
call, not once per trajectory that reaches it, and only the nodes on the
paths of pending groups and their rounds are alive. `run_loop` is the same
walk with one trajectory, so the round step exists once.

The exact walk stores its own entry on each node it reaches (`_Exact`:
amplitudes and probabilities by `np.einsum`, the success mass, the failure
branches and whether the node collapses), so a deeper round budget on the
same tree re-folds the stored entries and builds only the nodes past the
previous depth. The sampled round keeps its `ops @ state` and
`branch_probabilities` arithmetic, which `decompose` shares; the two
disagree in the last bits, so neither walk reads the other's numbers. The
exact walk loops down chains of nodes that walk one branch, so a unitary loop
of any depth needs no recursion; only a node with two or more failure
branches recurses, and each node's failure terms add in label order. Such a
node builds its failure children as one batch, together with, one level
ahead, the failure children of those that do not collapse either.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import zoo
from .processor import (
    ProcessorDefinition,
    ProgramBasis,
    ProgramState,
    branch_operators,
    branch_probabilities,
    stacked,
    data_state,
    decompose,  # noqa: F401 - re-exported: callers look it up in loops
    inverse_cdf,
)
from .qlinalg import SingularOperator, frobenius_rows, identity, inverses, su2_log

# Failure branches with less probability mass than this cannot move a
# 1e-12 comparison and are pruned from the exact tree.
_PRUNE = 1e-25

# Bytes of node arrays (residual, branch operators and, on a tree with a data
# state, the round: amplitudes, post-states and the probability list) one
# OutcomeTree keeps. The residual and operators of a qubit-family node with
# N outcomes take 64 (N + 1) bytes and those of a qidN(3) node 1.4 KiB, so
# thousands fit; on qidN(8) (83 KiB per node with its round) about 25 fit.
# Nodes are offered to the cap in the order the walks build them, a batch at
# a time. Nodes past the cap are built again per `run_trials` call (a stream
# chunk of a command), which bounds resident memory growth.
_RETAINED_BYTES = 2 * 1024 * 1024

# Bytes of node arrays (as `_RETAINED_BYTES` counts them) that one batch
# builds together: a walk pops pending groups, and `_fold` takes failure
# branches, until their missing nodes would pass it; a batch holds at least
# one node. qid2 (0.8 KiB per node with its round) and qidN(3) (2.3 KiB)
# nodes batch by the hundred, qidN(8) (83 KiB) three at a time: larger
# budgets were faster there but raised the peak memory of a qidN(8) sample.
_BATCH_BYTES = 256 * 1024


class SingularProgram(ValueError):
    """The residual cannot be inverted in this encoding; the loop cannot proceed."""


@dataclass(frozen=True)
class LoopRound:
    program: ProgramState
    outcome: str
    probability: float
    post_state: np.ndarray | None = None


@dataclass(frozen=True)
class LoopTrace:
    """Per-round record of one loop trajectory.

    status is "succeeded", "exhausted" (round budget spent) or
    "uncorrectable" (the residual became singular in the rule's encoding, so
    no correcting program exists).
    """

    rounds: tuple[LoopRound, ...]
    succeeded: bool
    status: str

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class CorrectionRule:
    """Family-specific program correction.

    `next_program(proc, target, residual)` encodes target @ residual^{-1}
    in the family's program encoding; with residual = I it encodes the
    target itself, so it also provides the first-round program. The
    family's `_next_program` encodes a (K, D, D) stack of residuals at once
    and returns, for each, its program or the SingularOperator or
    SingularProgram that says why none exists; each program has the bits
    of its residual encoded alone.

    The rules of the diagonal families (u1, bz, diagonal) read only the
    diagonals of target and residual: an `OutcomeTree` built with one checks
    once that the target and every block of the processor are diagonal.
    """

    basis_for: Callable[[ProcessorDefinition], ProgramBasis] = field(repr=False)
    success_labels: Callable[[ProcessorDefinition], frozenset[str]] = field(repr=False)
    _next_program: Callable = field(repr=False)
    _diagonal: bool = field(default=False, repr=False)  # set by _diagonal_rule

    def next_program(self, proc: ProcessorDefinition, target: np.ndarray, residual: np.ndarray):
        """The program of one (D, D) residual, raising when none exists, or the list `_next_program` gives a (K, D, D) stack."""
        r = np.asarray(residual, dtype=complex)
        out = self._next_program(proc, np.asarray(target, dtype=complex), r if r.ndim == 3 else r[None])
        if r.ndim == 3:
            return out
        if isinstance(out[0], Exception):
            raise out[0]
        return out[0]


def _computational_basis(proc: ProcessorDefinition) -> ProgramBasis:
    return ProgramBasis.computational(proc.program_dim)


def _check_diagonal(proc: ProcessorDefinition, target: np.ndarray) -> None:
    """ValueError unless the target is diagonal (relative 1e-9) and every block of the processor exactly so.

    Then every branch operator, in any basis, and every residual is diagonal. The blocks are read through
    views of their off-diagonal entries, so the grid is not copied.
    """
    off = target - np.diag(np.diagonal(target))
    with np.errstate(over="ignore"):  # a norm past float range is inf, which lets the target pass
        if np.linalg.norm(off) > 1e-9 * max(1.0, float(np.linalg.norm(target))):
            raise ValueError("target must be diagonal for this correction family")
    n, d = proc.program_dim, proc.data_dim
    if proc.blocks.reshape(n, n, d * d)[..., 1:].reshape(n, n, d - 1, d + 1)[..., :d].any():
        raise ValueError("processor blocks must be diagonal for this correction family")


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    size = np.abs(den)
    scale = size.max()
    if scale == 0 or (size <= 1e-12 * scale).any():
        raise SingularProgram("applied operator has a vanishing diagonal entry")
    return num / den


def _diagonal_rule(encode: Callable, success_labels: Callable) -> CorrectionRule:
    """The rule whose programs are encode(proc, t, rs) on the diagonal t of the target and the (K, D) diagonals rs of the residuals."""

    def next_program(proc, target, residuals):
        return encode(proc, target.diagonal(), residuals.diagonal(axis1=1, axis2=2))

    return CorrectionRule(_computational_basis, success_labels, next_program, _diagonal=True)


def _each(encode: Callable) -> Callable:
    """The stacked encode that applies encode(proc, t, r) to each diagonal r, keeping the SingularProgram it raises."""

    def encode_each(proc, t, rs):
        out = []
        for r in rs:
            try:
                out.append(encode(proc, t, r))
            except SingularProgram as exc:
                out.append(exc)
        return out

    return encode_each


def u1_rule() -> CorrectionRule:
    """Angle-doubling correction for the single-CNOT processor.

    A failure applies U(-beta); encoding the difference angle of
    target @ residual^{-1} doubles the angle after each consecutive failure
    (alpha, 2 alpha, 4 alpha, ...), so one success restores U(alpha).
    """

    def encode(proc, t, rs):
        (t0, t1), angles = np.arctan2(t.imag, t.real).tolist(), np.arctan2(rs.imag, rs.real).tolist()  # np.angle bit for bit
        return [zoo.u1_program(((t0 - t1) - (r0 - r1)) / 2.0) for r0, r1 in angles]

    return _diagonal_rule(encode, lambda proc: frozenset({"0"}))


def bz_rule() -> CorrectionRule:
    """Parameter-squaring correction for B(z) on the cyclic-shift processor.

    On the 2-dim program a failure applies z|0><0| + |1><1| up to scale, so
    the needed ratio squares: z, z^2, z^4, ... On N-dim programs the single
    failure branch leaves c0 (z^{N-1}|0><0| + |1><1|) and the same ratio
    arithmetic applies (an extension of the 2-dim chain; the rule only needs
    the residual to stay invertible).
    """

    def encode(proc, t, r):
        m = _safe_ratio(t, r)
        # A corrected ratio, a power of z, can leave the range: then no program exists. The first
        # program is the target's own (residual I): a z out of range there is the caller's.
        corrected = not np.all(r == 1)
        if abs(m[0]) <= (1e-12 if corrected else 0.0) * abs(m).max():
            raise SingularProgram("corrected ratio is unbounded (m00 ~ 0)")
        try:
            return zoo.geometric_program(complex(m[1] / m[0]), proc.program_dim)
        except zoo.InvalidParameter as exc:
            if corrected:
                raise SingularProgram(f"corrected ratio is out of range: {exc}") from None
            raise

    return _diagonal_rule(_each(encode), lambda proc: frozenset(str(j) for j in range(proc.program_dim - 1)))


def diagonal_rule() -> CorrectionRule:
    """Entrywise-quotient correction for the qudit diagonal processor.

    Next program entries are lambda * (target entry) / (residual entry),
    lambda fixed by normalization. Raises SingularProgram when an applied
    diagonal entry vanished: the failed operation is non-invertible and the
    loop cannot proceed.
    """
    return _diagonal_rule(_each(lambda proc, t, r: zoo.diagonal_program(_safe_ratio(t, r))), lambda proc: frozenset({"0"}))


def _needed(target: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, dict[int, SingularOperator]]:
    """target @ residual^{-1} for each residual of the (K, D, D) stack, and by index the refusal of each that cannot be inverted.

    A residual equal to I (the first round) gives the target itself, without inversion.
    """
    first = (residuals == identity(residuals.shape[1])).all(axis=(1, 2)).tolist()
    if all(first):
        return target[None].repeat(len(first), axis=0), {}
    invs, refused = inverses(residuals)
    needed = target @ invs
    if any(first):
        needed[first] = target
    return needed, refused


def _encode_rows(needed: np.ndarray, refused: dict, encode: Callable) -> list:
    """encode(stack) on the rows of `needed` that `refused` does not name, each refused row's exception in its place."""
    if not refused:
        return encode(needed)
    rows = [k for k in range(needed.shape[0]) if k not in refused]
    made = iter(encode(needed[rows]) if rows else ())
    return [refused[k] if k in refused else next(made) for k in range(needed.shape[0])]


def unitary_scale(m: np.ndarray) -> float | None:
    """c with m^dag m = c I within 1e-8 (relative), or None: m is not proportional to a unitary."""
    g = np.conjugate(m).T @ m
    c = float(np.trace(g).real) / m.shape[0]
    if c > 0 and np.linalg.norm(g - c * np.eye(m.shape[0])) <= 1e-8 * c * m.shape[0]:
        return c
    return None


def qid2_rule() -> CorrectionRule:
    """Conjugation correction for the qubit distributor.

    On outcome j != 0+ the data picked up sigma_j U sigma_j, so the next
    program encodes U (sigma_j U sigma_j)^{-1} = U sigma_j U^dag sigma_j,
    re-extracted through the SU(2) logarithm (global phases are dropped).
    """

    def encode(m):
        # su2_log is the one unitarity check; it also rejects what a zero or overflowing m leaves
        with np.errstate(all="ignore"):
            u = m / np.sqrt((np.conjugate(m).transpose(0, 2, 1) @ m).trace(axis1=1, axis2=2).real / m.shape[1])[:, None, None]
        # per residual: su2_log's and su2_program's numpy-scalar arithmetic costs less than stacked calls at small batches
        return [zoo.su2_program(su2_log(x)[0]) for x in u]

    def next_program(proc, target, residuals):
        return _encode_rows(*_needed(target, residuals), encode)

    return CorrectionRule(
        basis_for=lambda proc: zoo.qid2_basis(),
        success_labels=lambda proc: frozenset({"0+"}),
        _next_program=next_program,
    )


def qidN_rule() -> CorrectionRule:
    """Conjugation correction for the qudit distributor.

    On outcome (r,s) != (0,0) the applied operator is proportional to
    U^{(s,r)} V U^{(s,r)dag}; the next program encodes
    V [U^{(s,r)} V U^{(s,r)dag}]^{-1} via the operator-basis expansion.
    Raises SingularOperator when the accumulated branch is not invertible.
    """

    def next_program(proc, target, residuals):
        return _encode_rows(*_needed(target, residuals), zoo.programs_for)

    return CorrectionRule(
        basis_for=lambda proc: zoo.phi_basis(proc.data_dim),
        success_labels=lambda proc: frozenset({"0,0"}),
        _next_program=next_program,
    )


def _rescaled(residuals: np.ndarray) -> np.ndarray:
    """Keep each residual of the (K, D, D) stack at O(1) scale; only its direction matters."""
    norms = frobenius_rows(residuals)
    if 0.0 in norms:
        raise SingularProgram("residual collapsed to zero")
    root = math.sqrt(residuals.shape[1])
    return residuals * np.array([root / x for x in norms]).reshape(-1, 1, 1)


class _Round:
    """A node's round on one data state: amplitudes, branch probabilities, drawn rounds.

    `probs` holds every branch probability in label order, computed when
    the round is made, and `drawn[i]` is the LoopRound of branch i,
    post-state included, made on the first draw of i; `ends[i, status]` is
    the LoopTrace of a trajectory whose last draw was i here and that ended
    with that status.
    """

    __slots__ = ("amps", "probs", "drawn", "ends")

    def __init__(self, amps: np.ndarray, probs: list[float]):
        self.amps = amps  # (N, D): branch operator b applied to the state
        self.probs = probs  # branch_probabilities(amps)
        self.drawn: dict[int, LoopRound] = {}
        self.ends: dict[tuple[int, str], LoopTrace] = {}


class _Exact:
    """A node's entry in the exact walk: amplitudes, probabilities, success mass, failure branches.

    `collapses` (whether every branch operator is proportional to an
    isometry) is None until a walk first needs it, below the node.
    """

    __slots__ = ("amps", "probs", "s", "fails", "collapses")

    def __init__(self, ops: np.ndarray, state: np.ndarray, success_idx: list[int], fail_idx: list[int]):
        self.amps = np.einsum("bij,j->bi", ops, state)
        # a copy, so the entry holds only the arrays counted against the cap
        self.probs = np.einsum("bi,bi->b", np.conjugate(self.amps), self.amps).real.copy()
        p = self.probs.tolist()
        # numpy's sum of one entry is that entry
        self.s = p[success_idx[0]] if len(success_idx) == 1 else float(self.probs[success_idx].sum())
        self.fails = [i for i in fail_idx if p[i] > _PRUNE]
        self.collapses: bool | None = None


class _Node:
    """One outcome history: its residual and, unless uncorrectable, program and branch operators.

    On a tree with a data state, `round` caches the node's round on the
    state every trajectory brings to it, and `exact` its exact-walk entry.
    `kept`: the tree holds the node, so what is stored on it stays reachable.
    """

    __slots__ = ("residual", "program", "ops", "children", "round", "exact", "kept")

    def __init__(self, residual: np.ndarray, program):
        self.residual = residual
        # None: no correcting program exists (uncorrectable); the rule gave the exception that says why
        self.program: ProgramState | None = program if isinstance(program, ProgramState) else None
        self.ops: np.ndarray | None = None  # set by the tree's build
        self.children: dict[int, _Node] = {}
        self.round: _Round | None = None
        self.exact: _Exact | None = None
        self.kept = False

    def own(self) -> None:
        """Replace the node's arrays, views of its batch's stacks, by copies, so that keeping it keeps only them."""
        self.residual = self.residual.copy()
        if self.ops is not None:
            self.ops = self.ops.copy()
            self.ops.setflags(write=False)


class OutcomeTree:
    """Lazily memoized outcome tree of one loop: all that its walks know of it.

    A node is reached by its outcome history, the branch indices drawn from
    the root (residual I). Children are built on first visit and kept under a
    kept parent while the tree's retained node arrays stay within `_RETAINED_BYTES`.

    `psi`, when given, is the data state every trajectory of the loop
    starts from, and the tree is walked by `run_trials` and `exact_walk`.
    Outcomes then fix the state at every node as well, so a node's round is
    computed once: the first trajectory to reach it stores the amplitudes
    `ops @ state`, the branch probabilities and the LoopRound of each branch
    it draws, and later trajectories only draw a uniform over the stored
    probabilities. Those arrays count against the cap too, and so do the
    entries `exact_walk` keeps on the retained nodes it reaches.
    Without `psi` (a fresh state per trajectory) the tree is walked by
    `run_loop`, and nothing of a round is kept.

    The tree takes no lock: threads sharing one may build a node twice and
    overshoot the cap, so give each thread its own tree.
    """

    def __init__(self, proc: ProcessorDefinition, target, rule: CorrectionRule, psi=None):
        self.proc = proc
        self.target = np.asarray(target, dtype=complex)
        self.rule = rule
        if rule._diagonal:
            _check_diagonal(proc, self.target)
        self.basis = rule.basis_for(proc)
        self.success = rule.success_labels(proc)
        self._success_idx = [i for i, lab in enumerate(self.basis.labels) if lab in self.success]
        self._fail_idx = [i for i, lab in enumerate(self.basis.labels) if lab not in self.success]
        self.psi = None
        self._round_bytes = 0  # what a node's round adds to the node's arrays
        if psi is not None:
            self.psi = data_state(proc, psi).copy()
            self.psi.setflags(write=False)
            # amplitudes and at most one post-state per branch, N x D complex each,
            # and the list of N probabilities with its floats
            n = len(self.basis.labels)
            self._round_bytes = 2 * 16 * n * proc.data_dim + sys.getsizeof([0.0] * n) + n * sys.getsizeof(0.0)
        # what a correctable node counts against the cap: residual, branch operators and round
        self._node_bytes = 16 * proc.data_dim**2 * (1 + len(self.basis.labels)) + self._round_bytes
        self._root: _Node | None = None
        self._retained = 0

    @property
    def root(self) -> _Node:
        if self._root is None:
            self._root = self.node(np.eye(self.proc.data_dim, dtype=complex))
            self._root.kept = True
        return self._root

    def node(self, residual: np.ndarray) -> _Node:
        """Build, without retaining, the node whose outcome history left `residual`: a batch of one."""
        return self._build(np.asarray(residual, dtype=complex)[None])[0]

    def _build(self, residuals: np.ndarray) -> list[_Node]:
        """Build, without retaining, the node of each residual of the (K, D, D) stack, each stage in one stacked call.

        The rule encodes the stack, and the programs' kets give one stack of branch operators; a node's
        arrays are views of the batch's stacks, with the bits of the node built alone.
        """
        nodes = [_Node(r, p) for r, p in zip(residuals, self.rule.next_program(self.proc, self.target, residuals))]
        live = [node for node in nodes if node.program is not None]
        if live:
            ops = branch_operators(self.proc, [node.program for node in live], self.basis)
            ops.setflags(write=False)
            for node, o in zip(live, ops):
                node.ops = o
        return nodes

    def child(self, parent: _Node, i: int, retain: bool = True) -> _Node:
        """The node after `parent`'s branch i: `children` of the one pair."""
        return self.children([(parent, i)], retain)[0]

    def children(self, pairs: list[tuple[_Node | None, int]], retain: bool = True) -> list[_Node]:
        """The node after each (parent, branch i) pair, the root for a parent None; the missing ones are built as one batch.

        In the order of `pairs`, a built node is kept if `retain`, its parent is kept and it fits under the
        cap; kept out of a batch of more than one, it takes copies of its arrays (`_Node.own`).
        """
        out = [self.root if parent is None else parent.children.get(i) for parent, i in pairs]
        todo = [k for k, node in enumerate(out) if node is None]
        if not todo:
            return out
        steps = stacked([pairs[k][0].ops[pairs[k][1]] for k in todo])
        built = self._build(_rescaled(steps @ stacked([pairs[k][0].residual for k in todo])))
        for k, node in zip(todo, built):
            out[k] = node
            parent, i = pairs[k]
            size = node.residual.nbytes + (0 if node.ops is None else node.ops.nbytes + self._round_bytes)
            if retain and parent.kept and self._keep(size):
                if len(todo) > 1:
                    node.own()
                parent.children[i] = node
                node.kept = True
        return out

    def _keep(self, nbytes: int) -> bool:
        """Count nbytes against `_RETAINED_BYTES` if they fit; False: the caller must not keep them."""
        if self._retained + nbytes > _RETAINED_BYTES:
            return False
        self._retained += nbytes
        return True

    def rounds_at(self, nodes: list[_Node], states: list[np.ndarray]) -> list[_Round]:
        """The round of each correctable node on its state: cached on a tree with a state, else a throwaway.

        The missing rounds are computed together: one stacked `ops @ state` and one `branch_probabilities`,
        each with the bits of the node's round alone. A kept node of a batch of more than one takes a copy
        of its amplitudes.
        """
        out = [node.round for node in nodes]
        todo = [k for k, held in enumerate(out) if held is None]
        if not todo:
            return out
        ops = stacked([nodes[k].ops for k in todo])
        amps = np.matmul(ops, stacked([states[k] for k in todo])[:, None, :, None])[..., 0]
        for k, a, probs in zip(todo, amps, branch_probabilities(amps)):
            held = out[k] = _Round(a.copy() if nodes[k].kept and len(todo) > 1 else a, probs)
            if self.psi is not None:
                nodes[k].round = held
        return out


def run_loop(tree: OutcomeTree, psi, max_rounds: int, rng: np.random.Generator) -> LoopTrace:
    """Sample one trajectory from psi on a tree built without a data state.

    Rounds are sampled until a success label fires or `max_rounds` rounds
    have run; the trace records the program, outcome, branch probability and
    post-state of every round. On success the final post-state is
    proportional to target @ psi (up to global phase). Trajectories of one
    loop share its tree; the trace does not depend on what the tree holds.
    A tree built with a data state raises ValueError: `run_trials` walks
    it. This is that walk with one trajectory, drawing from rng.
    """
    if tree.psi is not None:
        raise ValueError("a tree built with a data state is sampled by run_trials")
    return _walk(tree, data_state(tree.proc, psi), max_rounds, 1, lambda j: rng.random())[0]


def run_trials(tree: OutcomeTree, max_rounds: int, n: int, draw: Callable[[int], float]) -> list[LoopTrace]:
    """Traces of n trajectories from the data state of `tree`, sampled together.

    The tree must have been built with a data state (ValueError otherwise).
    Trajectory j draws the uniform of each of its rounds by draw(j), in round
    order, so its trace is `run_loop`'s from that state on a stream whose
    random() calls return those draws; `streams.uniform_draws` gives the
    draws of the trial streams. Trajectories with one outcome history share
    one node, round and trace, each made once per call whatever the tree retains.
    """
    if tree.psi is None:
        raise ValueError("trajectories sampled together need a tree built with a data state")
    return _walk(tree, tree.psi, max_rounds, n, draw)


def _walk(tree: OutcomeTree, state: np.ndarray, max_rounds: int, n: int, draw: Callable[[int], float]) -> list[LoopTrace]:
    """The sampled loop of n trajectories from `state`, depth first over their outcome histories.

    A frame on the stack is one group: the trajectories that share an
    outcome history, with the parent node, the branch drawn there, the
    parent's round and the rounds so far. Popping a group builds its node,
    draws each member's next uniform over the node's probabilities and
    pushes one group per drawn branch that neither succeeded nor spent the
    budget, to be popped in label order. Pending groups hold only parents
    on the current path, so no other unretained node is alive.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    labels, success = tree.basis.labels, tree.success
    out: list = [None] * n
    stack: list[tuple] = [(None, 0, None, (), range(n))]
    while stack:
        frames = [stack.pop()]
        room = _BATCH_BYTES - _need(tree, frames[0])
        while stack and _need(tree, stack[-1]) <= room:
            room -= _need(tree, stack[-1])
            frames.append(stack.pop())
        live = []
        for frame, node in zip(frames, tree.children([frame[:2] for frame in frames])):
            if node.program is None:
                _end(out, frame[4], frame[2], frame[1], frame[3], "uncorrectable")
            else:
                live.append((node, frame[3], frame[4]))
        helds = tree.rounds_at([node for node, _, _ in live], [rounds[-1].post_state if rounds else state for _, rounds, _ in live])
        for (node, rounds, group), held in zip(live, helds):
            probs = held.probs
            split: dict[int, list[int]] = {}
            for j in group:
                split.setdefault(inverse_cdf(probs, draw(j))[0], []).append(j)
            for b in sorted(split, reverse=True):  # popped in label order
                r = held.drawn.get(b)
                if r is None:
                    post = held.amps[b] / np.sqrt(probs[b])
                    post.setflags(write=False)
                    r = held.drawn[b] = LoopRound(program=node.program, outcome=labels[b], probability=probs[b], post_state=post)
                path = rounds + (r,)
                if r.outcome in success:
                    _end(out, split[b], held, b, path, "succeeded")
                elif len(path) == max_rounds:
                    _end(out, split[b], held, b, path, "exhausted")
                else:
                    stack.append((node, b, held, path, split[b]))
    return out


def _need(tree: OutcomeTree, frame: tuple) -> int:
    """Bytes a pending group's node adds to a batch: 0 if it is built (the root, or a child its parent holds)."""
    parent, i = frame[0], frame[1]
    return 0 if parent is None or i in parent.children else tree._node_bytes


def _end(out: list, group, held: _Round | None, i: int, rounds: tuple, status: str) -> None:
    """Give every trajectory of `group` the trace that ends after branch i of `held` with `status`."""
    if held is None:  # the root is uncorrectable
        trace = LoopTrace(rounds=(), succeeded=False, status=status)
    else:
        trace = held.ends.get((i, status))
        if trace is None:
            trace = held.ends[i, status] = LoopTrace(rounds=rounds, succeeded=(status == "succeeded"), status=status)
    for j in group:
        out[j] = trace


def _isometry_deviations(ops: np.ndarray, probs: np.ndarray) -> list[float]:
    """||m^dag m - p I||_F of each branch operator m with its probability p, with the bits of np.linalg.norm: stacked products and `frobenius_rows`."""
    return frobenius_rows(np.conjugate(ops).transpose(0, 2, 1) @ ops - probs[:, None, None] * identity(ops.shape[2]).real)


def _state_independent(ops: np.ndarray, probs: np.ndarray) -> bool:
    """True when every branch operator is proportional to an isometry (a nan deviation does not count against it).

    Then outcome probabilities cannot depend on the data state, which is
    what lets the exact tree collapse.
    """
    return not any(x > 1e-11 for x in _isometry_deviations(ops, probs))


def exact_walk(tree: OutcomeTree, n: int) -> float:
    """Exact cumulative success probability of the first n rounds of `tree`'s loop.

    The tree must have been built with the data state the loop starts from.
    Each node's entry is computed from the node's branch operators and data
    state, and kept with the node while the node is kept and its arrays fit
    within `_RETAINED_BYTES`. Nodes whose branch operators are all
    proportional to isometries have state-independent probabilities; their
    failure subtrees are congruent (the residuals are conjugation-related),
    so a single representative child is evaluated and retained: it is the
    chain that deeper round budgets walk again. Other nodes (non-unitary
    targets) go branch by branch, through children built in batches
    without retaining them. The collapsed and fully enumerated evaluations are checked against
    each other for small n in the test suite. The value at n does not depend
    on what the tree already holds.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tree.psi is None:
        raise ValueError("the exact walk needs a tree built with a data state")
    return float(_fold(tree, tree.root, tree.psi, n))


def _fold(tree: OutcomeTree, node: _Node, state, remaining: int, ready: dict | None = None):
    """Exact success mass of `remaining` rounds from `node`; `state` is its data state or (parent entry, branch).

    The loop steps to a collapsing node's representative child, or to another's last failure branch after recursing
    into the rest, and folds the chain as s + (1 - s) v or s + sum p_i v_i; a tuple is normalized only if needed.
    The failure children of a node that does not collapse are built in batches, and with them, one level ahead,
    the failure children of those that do not collapse either (`_ahead`); `ready` holds such prebuilt children of
    `node`, by branch.
    """
    links, value = [], 0.0  # an uncorrectable node adds nothing
    while node.program is not None:
        entry = _entry(tree, node, state)
        if remaining == 1 or not entry.fails:
            value = entry.s
            break
        a, i = entry.s, entry.fails[-1]
        if _collapses(node, entry):  # the failure subtrees are congruent: walk the first
            i, b = entry.fails[0], 1.0 - entry.s
            last, ready = tree.child(node, i), None
        else:  # built as batches of failure branches, folded in label order
            width = max(1, _BATCH_BYTES // tree._node_bytes)
            for lo in range(0, len(entry.fails), width):
                js = entry.fails[lo : lo + width]
                kids = [ready[j] for j in js] if ready else tree.children([(node, j) for j in js], retain=False)
                ahead = _ahead(tree, entry, js, kids, remaining - 1, width)
                for j, kid in zip(js, kids):
                    if j == i:
                        last, ready = kid, ahead.get(j)
                    else:
                        a += entry.probs[j] * _fold(tree, kid, (entry, j), remaining - 1, ahead.get(j))
            b = entry.probs[i]
        links.append((a, b))
        node, state, remaining = last, (entry, i), remaining - 1
    for a, b in reversed(links):
        value = a + b * value
    return value


def _entry(tree: OutcomeTree, node: _Node, state) -> _Exact:
    """The exact entry of a correctable node, made from its state (or (parent entry, branch)) unless it holds one.

    A kept node holds it while it fits in `_RETAINED_BYTES`; any other node is transient and holds it anyway.
    """
    entry = node.exact
    if entry is None:
        if isinstance(state, tuple):
            up, i = state
            state = up.amps[i] / np.sqrt(up.probs[i])
        entry = _Exact(node.ops, state, tree._success_idx, tree._fail_idx)
        if not node.kept or tree._keep(entry.amps.nbytes + entry.probs.nbytes):
            node.exact = entry
    return entry


def _collapses(node: _Node, entry: _Exact) -> bool:
    if entry.collapses is None:
        entry.collapses = _state_independent(node.ops, entry.probs)
    return entry.collapses


def _ahead(tree: OutcomeTree, up: _Exact, js: list[int], kids: list[_Node], remaining: int, width: int) -> dict:
    """The failure children of each of `kids` (branches js below `up`) that will not collapse, built as one batch.

    Returns {j: {branch: child}}, or nothing when the kids have `remaining` 1 or their children would not fit in
    `width` nodes.
    """
    wanted = []
    if remaining > 1:
        for j, kid in zip(js, kids):
            if kid.program is not None:
                entry = _entry(tree, kid, (up, j))
                if entry.fails and not _collapses(kid, entry):
                    wanted += [(j, kid, k) for k in entry.fails]
    if not wanted or len(wanted) > width:
        return {}
    out: dict = {}
    for (j, _, k), child in zip(wanted, tree.children([(kid, k) for _, kid, k in wanted], retain=False)):
        out.setdefault(j, {})[k] = child
    return out


def exact_success(
    proc: ProcessorDefinition,
    target,
    rule: CorrectionRule,
    n: int,
    psi=None,
) -> float:
    """Exact cumulative success probability of an n-round corrected loop from `psi`.

    `exact_walk` on a fresh `OutcomeTree` built with psi (default: the
    uniform superposition). Callers that evaluate one loop at several round
    budgets, or also sample it, build the tree once and walk it instead.
    """
    if psi is None:
        psi = np.ones(proc.data_dim, dtype=complex) / np.sqrt(proc.data_dim)
    return exact_walk(OutcomeTree(proc, target, rule, psi), n)
