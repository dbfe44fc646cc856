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
and read-only branch operators), built lazily on first visit.
`run_loop(tree, psi, max_rounds, rng)` samples one Monte Carlo trajectory
from a caller-supplied RNG stream by walking the tree; callers build one tree
per loop and pass it to every trajectory. Retained node arrays are capped at
`_RETAINED_BYTES` per tree; nodes past the cap are built and used but not
kept, and the nodes built first are the ones kept. Nothing is cached
between trees, and a trajectory's output does not depend on what the tree
already holds. `exact_walk(tree, n)` evaluates the loop
exactly on a tree built with its data state, so the exact values at many
round budgets and the sampled trajectories of one loop share one tree's
nodes; `exact_success` is that walk on a fresh tree.

A sampled round does not split every branch. It applies the node's stacked
branch operators to the state in one product, computes all branch
probabilities from one stacked product (`processor.branch_probabilities`),
draws a label by `processor.inverse_cdf` (the walk `select_branch` also
uses), and normalizes only the chosen post-state. `decompose` forms the same
two products, so a round draws the same label, probability and post-state as
`select_branch(decompose(...))` on the same stream.

When every trajectory starts from one data state, pass it to the tree:
`OutcomeTree(proc, target, rule, psi)`. The outcomes then fix the state at
each node too, so a node's round is computed once. The first trajectory to
reach a node stores the product, the branch probabilities and the
LoopRound of the branch it drew; later ones draw a uniform over the stored
probabilities and reuse the stored rounds, post-states included, and the
stored LoopTrace of a trajectory that ends there. Each stored value comes from the same
expression on the same inputs, so traces are byte-identical to those of a
tree without a state. A tree without a state (a Haar-random psi per
trajectory) computes each round afresh, in the same loop body.

Such trajectories need not run one by one. `run_trials(tree, max_rounds,
n, draw)` walks n of them depth first as groups that share an outcome
history: at a node it draws each member's next uniform (`draw(j)`, for
trajectory j), splits the group by the drawn branch, and builds a child
only when its subgroup is popped. A node past the cap is then built once
per call, not once per trajectory that reaches it, and only the nodes of
the current path and their rounds are alive. `run_loop` is this walk with
one trajectory whose draws come from its rng, so the round step exists
once.

The exact walk stores its own entry on each node it reaches (`_Exact`:
amplitudes and probabilities by `np.einsum`, the success mass, the failure
branches and whether the node collapses), so a deeper round budget on the
same tree re-folds the stored entries and builds only the nodes past the
previous depth. The sampled round keeps its `ops @ state` and
`branch_probabilities` arithmetic, which `decompose` shares; the two
disagree in the last bits, so neither walk reads the other's numbers. The
exact walk keeps its own stack instead of recursing, so a round budget of
any depth runs within Python's recursion limit, and it adds each node's
failure terms in label order.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import zoo
from .processor import (
    ProcessorDefinition,
    ProgramBasis,
    ProgramState,
    branch_operators,
    branch_probabilities,
    data_state,
    decompose,  # noqa: F401 - re-exported: callers look it up in loops
    inverse_cdf,
)
from .qlinalg import SingularOperator, inverse, su2_log

# Failure branches with less probability mass than this cannot move a
# 1e-12 comparison and are pruned from the exact tree.
_PRUNE = 1e-25

# Bytes of node arrays (residual, branch operators and, on a tree with a data
# state, the round: amplitudes, post-states and the probability list) one
# OutcomeTree keeps. The residual and operators of a qubit-family node with
# N outcomes take 64 (N + 1) bytes and those of a qidN(3) node 1.4 KiB, so
# thousands fit; on qidN(8) (83 KiB per node with its round) about 25 fit,
# the first ones built. Nodes past the cap are built again per `run_trials`
# call (a stream chunk of a command), which bounds resident memory growth.
_RETAINED_BYTES = 2 * 1024 * 1024


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
    target itself, so it also provides the first-round program.

    The rules of the diagonal families (u1, bz, diagonal) read only the
    diagonals of target and residual: an `OutcomeTree` built with one checks
    once that the target and every block of the processor are diagonal.
    """

    basis_for: Callable[[ProcessorDefinition], ProgramBasis] = field(repr=False)
    success_labels: Callable[[ProcessorDefinition], frozenset[str]] = field(repr=False)
    _next_program: Callable = field(repr=False)
    _diagonal: bool = field(default=False, repr=False)  # set by _diagonal_rule

    def next_program(self, proc: ProcessorDefinition, target: np.ndarray, residual: np.ndarray) -> ProgramState:
        return self._next_program(proc, np.asarray(target, dtype=complex), np.asarray(residual, dtype=complex))


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
    scale = np.abs(den).max()
    if scale == 0 or np.any(np.abs(den) <= 1e-12 * scale):
        raise SingularProgram("applied operator has a vanishing diagonal entry")
    return num / den


def _diagonal_rule(encode: Callable, success_labels: Callable) -> CorrectionRule:
    """The rule whose program is encode(proc, t, r) on the diagonals t of the target and r of the residual."""

    def next_program(proc, target, residual):
        return encode(proc, np.diagonal(target), np.diagonal(residual))

    return CorrectionRule(_computational_basis, success_labels, next_program, _diagonal=True)


def u1_rule() -> CorrectionRule:
    """Angle-doubling correction for the single-CNOT processor.

    A failure applies U(-beta); encoding the difference angle of
    target @ residual^{-1} doubles the angle after each consecutive failure
    (alpha, 2 alpha, 4 alpha, ...), so one success restores U(alpha).
    """

    def encode(proc, t, r):
        return zoo.u1_program(float(((np.angle(t[0]) - np.angle(t[1])) - (np.angle(r[0]) - np.angle(r[1]))) / 2.0))

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

    return _diagonal_rule(encode, lambda proc: frozenset(str(j) for j in range(proc.program_dim - 1)))


def diagonal_rule() -> CorrectionRule:
    """Entrywise-quotient correction for the qudit diagonal processor.

    Next program entries are lambda * (target entry) / (residual entry),
    lambda fixed by normalization. Raises SingularProgram when an applied
    diagonal entry vanished: the failed operation is non-invertible and the
    loop cannot proceed.
    """
    return _diagonal_rule(lambda proc, t, r: zoo.diagonal_program(_safe_ratio(t, r)), lambda proc: frozenset({"0"}))


@lru_cache(maxsize=None)
def _eye(dim: int) -> np.ndarray:
    e = np.eye(dim, dtype=complex)
    e.setflags(write=False)
    return e


def _needed(target: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """target @ residual^{-1}, skipping the inversion on the first round."""
    if np.array_equal(residual, _eye(residual.shape[0])):
        return target
    return target @ inverse(residual)


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

    def next_program(proc, target, residual):
        m = _needed(target, residual)
        # su2_log is the one unitarity check; it also rejects what a zero or overflowing m leaves
        with np.errstate(all="ignore"):
            u = m / np.sqrt(float(np.trace(np.conjugate(m).T @ m).real) / m.shape[0])
        return zoo.su2_program(su2_log(u)[0])

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

    def next_program(proc, target, residual):
        return zoo.program_for(_needed(target, residual))

    return CorrectionRule(
        basis_for=lambda proc: zoo.phi_basis(proc.data_dim),
        success_labels=lambda proc: frozenset({"0,0"}),
        _next_program=next_program,
    )


def _rescaled(residual: np.ndarray) -> np.ndarray:
    """Keep the residual at O(1) scale; only its direction matters."""
    norm = np.linalg.norm(residual)
    if norm == 0:
        raise SingularProgram("residual collapsed to zero")
    return residual * (np.sqrt(residual.shape[0]) / norm)


class _Round:
    """A node's round on one data state: amplitudes, branch probabilities, drawn rounds.

    `probs` holds every branch probability in label order, computed when
    the round is made, and `drawn[i]` is the LoopRound of branch i,
    post-state included, made on the first draw of i; `ends[i, status]` is
    the LoopTrace of a trajectory whose last draw was i here and that ended
    with that status.
    """

    __slots__ = ("amps", "probs", "drawn", "ends")

    def __init__(self, amps: np.ndarray):
        self.amps = amps  # (N, D): branch operator b applied to the state
        self.probs = branch_probabilities(amps)
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
        self.s = float(self.probs[success_idx].sum())
        self.fails = [i for i in fail_idx if self.probs[i] > _PRUNE]
        self.collapses: bool | None = None


class _Node:
    """One outcome history: its residual and, unless uncorrectable, program and branch operators.

    On a tree with a data state, `round` caches the node's round on the
    state every trajectory brings to it, and `exact` its exact-walk entry.
    """

    __slots__ = ("residual", "program", "ops", "children", "round", "exact")

    def __init__(self, residual: np.ndarray, program: ProgramState | None, ops: np.ndarray | None):
        self.residual = residual
        self.program = program  # None: no correcting program exists (uncorrectable)
        self.ops = ops
        self.children: dict[int, _Node] = {}
        self.round: _Round | None = None
        self.exact: _Exact | None = None


class OutcomeTree:
    """Lazily memoized outcome tree of one loop: all `run_loop` and `exact_walk` know of it.

    A node is reached by its outcome history, the branch indices drawn from
    the root (residual I). Children are built on first visit and kept while
    the tree's retained node arrays stay within `_RETAINED_BYTES`.

    `psi`, when given, is the data state every trajectory of the loop
    starts from. Outcomes then fix the state at every node as well, so a
    node's round is computed once: the first trajectory to reach it stores
    the amplitudes `ops @ state`, the branch probabilities and the
    LoopRound of each branch it draws, and later trajectories only draw a
    uniform over the stored probabilities. Those arrays count against the
    cap too, and so do the entries `exact_walk` keeps on the retained nodes
    it reaches.
    Without `psi` (a fresh state per trajectory) nothing of a round is kept
    and there is no exact walk.

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
        self.psi = None
        self._round_bytes = 0  # what a node's round adds to the node's arrays
        if psi is not None:
            self.psi = data_state(proc, psi).copy()
            self.psi.setflags(write=False)
            # amplitudes and at most one post-state per branch, N x D complex each,
            # and the list of N probabilities with its floats
            n = len(self.basis.labels)
            self._round_bytes = 2 * 16 * n * proc.data_dim + sys.getsizeof([0.0] * n) + n * sys.getsizeof(0.0)
        self._root: _Node | None = None
        self._retained = 0

    @property
    def root(self) -> _Node:
        if self._root is None:
            self._root = self.node(np.eye(self.proc.data_dim, dtype=complex))
        return self._root

    def node(self, residual: np.ndarray) -> _Node:
        """Build, without retaining, the node whose outcome history left `residual`."""
        try:
            program = self.rule.next_program(self.proc, self.target, residual)
        except (SingularOperator, SingularProgram):
            return _Node(residual, None, None)
        ops = branch_operators(self.proc, program, self.basis)
        ops.setflags(write=False)
        return _Node(residual, program, ops)

    def child(self, parent: _Node, i: int, retain: bool = True) -> _Node:
        """The node after `parent` when its branch i fired; `retain=False` builds a missing one without keeping it."""
        found = parent.children.get(i)
        if found is not None:
            return found
        node = self.node(_rescaled(parent.ops[i] @ parent.residual))
        if not retain:
            return node
        size = node.residual.nbytes
        if node.ops is not None:
            size += node.ops.nbytes + self._round_bytes
        if self._keep(size):
            parent.children[i] = node
        return node

    def _keep(self, nbytes: int) -> bool:
        """Count nbytes against `_RETAINED_BYTES` if they fit; False: the caller must not keep them."""
        if self._retained + nbytes > _RETAINED_BYTES:
            return False
        self._retained += nbytes
        return True

    def start(self, psi) -> np.ndarray:
        """The validated data state a trajectory starts from; on a tree with a state, psi must be it.

        The tree's own `psi` object, read-only, is returned unchecked.
        """
        if psi is self.psi and psi is not None:
            return psi
        state = data_state(self.proc, psi)
        if self.psi is None:
            return state
        if state.tobytes() != self.psi.tobytes():
            raise ValueError("psi differs from the data state the outcome tree was built for")
        return self.psi

    def round_at(self, node: _Node, state: np.ndarray) -> _Round:
        """The round of `node` on `state`: cached on a tree with a state, else a throwaway."""
        held = node.round
        if held is None:
            held = _Round(node.ops @ state)
            if self.psi is not None:
                node.round = held
        return held


def run_loop(tree: OutcomeTree, psi, max_rounds: int, rng: np.random.Generator) -> LoopTrace:
    """Sample one trajectory of the loop that `tree` describes.

    Rounds are sampled until a success label fires or `max_rounds` rounds
    have run; the trace records the program, outcome, branch probability and
    post-state of every round. On success the final post-state is
    proportional to target @ psi (up to global phase). Trajectories of one
    loop share its tree; the trace does not depend on what the tree holds.

    On a tree built with a data state, psi must equal it (ValueError
    otherwise) and the trace and its LoopRound objects, read-only
    post-states included, are the ones the tree stores: trajectories with
    the same outcome history and status share them. This is `run_trials`
    with one trajectory whose draws come from rng.
    """
    return _walk(tree, tree.start(psi), max_rounds, 1, lambda j: rng.random())[0]


def run_trials(tree: OutcomeTree, max_rounds: int, n: int, draw: Callable[[int], float]) -> list[LoopTrace]:
    """Traces of n trajectories from the data state of `tree`, sampled together.

    Trajectory j draws the uniform of each of its rounds by draw(j), in round
    order, so its trace is `run_loop`'s on a stream whose random() calls
    return those draws; `streams.uniform_draws` gives the draws of the trial
    streams. Trajectories with one outcome history share one node, round and
    trace, each made once per call whatever the tree retains.
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
        parent, i, up, rounds, group = stack.pop()
        node = tree.root if parent is None else tree.child(parent, i)
        if node.program is None:
            _end(out, group, up, i, rounds, "uncorrectable")
            continue
        held = tree.round_at(node, rounds[-1].post_state if rounds else state)
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


def _state_independent(ops: np.ndarray, probs: np.ndarray) -> bool:
    """True when every branch operator is proportional to an isometry.

    Then outcome probabilities cannot depend on the data state, which is
    what lets the exact tree collapse.
    """
    d = ops.shape[2]
    eye = np.eye(d)
    for m, p in zip(ops, probs):
        if np.linalg.norm(np.conjugate(m).T @ m - p * eye) > 1e-11:
            return False
    return True


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
    targets) go branch by branch, through children built without retaining
    them. The collapsed and fully enumerated evaluations are checked against
    each other for small n in the test suite. The value at n does not depend
    on what the tree already holds.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tree.psi is None:
        raise ValueError("the exact walk needs a tree built with a data state")
    labels, success = tree.basis.labels, tree.success
    success_idx = [i for i, lab in enumerate(labels) if lab in success]
    fail_idx = [i for i, lab in enumerate(labels) if lab not in success]
    # Frames of the nodes being folded: [node, entry, remaining, position in entry.fails, running total].
    # `kept`: the node is held by the tree, so a child retained under it stays reachable.
    stack: list[list] = []
    node, state, remaining, kept = tree.root, tree.psi, n, True
    while True:
        if node.program is None:
            value = 0.0
        else:
            entry = node.exact
            if entry is None:
                if state is None:  # the parent's amplitudes of the branch that led here, normalized
                    _, up, _, pos, _ = stack[-1]
                    i = up.fails[pos]
                    state = up.amps[i] / np.sqrt(up.probs[i])
                entry = _Exact(node.ops, state, success_idx, fail_idx)
                if kept and tree._keep(entry.amps.nbytes + entry.probs.nbytes):
                    node.exact = entry
            if remaining == 1 or not entry.fails:
                value = entry.s
            else:
                if entry.collapses is None:
                    entry.collapses = _state_independent(node.ops, entry.probs)
                stack.append([node, entry, remaining, 0, entry.s])
                i = entry.fails[0]
                child = tree.child(node, i, retain=kept and entry.collapses)
                node, state, remaining, kept = child, None, remaining - 1, child is node.children.get(i)
                continue
        # Fold the value into the frames above it until one has a branch left to walk.
        while stack:
            frame = stack[-1]
            parent, entry, rem, pos, total = frame
            if entry.collapses:
                value = entry.s + (1.0 - entry.s) * value
                stack.pop()
                continue
            total += entry.probs[entry.fails[pos]] * value
            if pos + 1 < len(entry.fails):
                frame[3], frame[4] = pos + 1, total
                i = entry.fails[pos + 1]
                child = tree.child(parent, i, retain=False)
                node, state, remaining, kept = child, None, rem - 1, child is parent.children.get(i)
                break
            value = total
            stack.pop()
        else:
            return float(value)


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
