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
one tree per loop. An uncorrectable node is an outcome, not an error: the
rule gives, unraised, the exception that says why it has no program.
Retained node arrays are capped at `_RETAINED_BYTES` per tree; nodes past
the cap are built and used but not kept, and nodes are offered to the cap
in the order the walks build them. Nothing is cached between trees, and a
trajectory's output does not depend on what the tree already holds.

The walks build nodes in batches (`OutcomeTree.children`): the residual
products and their norms, the inverses, the qidN encoding, the branch
operators and, in the sampled walks, the rounds are each one stacked numpy
call for the whole batch; each node keeps the bits it has when built alone
and, kept or not, views of the batch's stacks (its residual, branch
operators and round amplitudes). The qid2 rule takes its SU(2) steps stacked
(`su2_logs`, `zoo.su2_programs`) from `_STACKED_SU2` residuals up and per
residual below; the u1, bz and diagonal rules' scalar steps run per
residual. A lone node (`OutcomeTree.child`, the step down a collapsed chain,
or any batch of one) takes one node's form in each stage: `inverse` and the
rule's encoding of one matrix, `np.dot` branch-operator products, one `ops @
state` round and, in the exact walk, one node's `np.einsum` entry and
collapse test. Each gives the bits of its row of the stacked form, and none
pays for a stack of one.

A tree is of one of two kinds, and each kind has its own walks; a walk
given a tree of the other kind raises ValueError.

- Without a data state, `OutcomeTree(proc, target, rule)`, when each
  trajectory brings a fresh one (a Haar-random psi per trial):
  `run_loops(tree, states, max_rounds, draw)` samples one trajectory from
  each state together and `run_loop(tree, psi, max_rounds, rng)` one from
  psi, computing each round afresh.
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
paths of pending groups and their rounds are alive. `run_loops` is the
same walk from one state per trajectory: each trajectory is a group of its
own at the root, so a pass of Haar-random states takes its first round in
one stacked product over the root's branch operators, broadcast across the
states, not copied. `run_loop` is that walk with one trajectory, so the
round step exists once.

The exact walk stores its own entry on each node of its chain (`_Exact`:
amplitudes and probabilities by `np.einsum`, the success mass, the failure
branches and whether the node collapses), so a deeper round budget on the
same tree re-folds the stored entries and builds only the nodes past the
previous depth. The sampled round keeps its `ops @ state` and
`branch_probabilities` arithmetic, which `decompose` shares; the two
disagree in the last bits, so neither walk reads the other's numbers. The
exact walk loops down the chain of collapsing nodes, so a unitary loop of
any depth needs no recursion. Below the first node that does not collapse it
walks the subtree depth first in batches (`_values`): a level that fits one
batch is built as one, with the nodes' entries, collapse tests and
children's residuals and states one stacked call each, and dropped, and the
walk steps down to the batch's children in a loop; a wider level is cut into
batches, each walked by recursion but the last. The levels keep each node's
success mass and coefficients and fold them bottom up in the depth-first
walk's order, each node's failure terms in label order.
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
from .qlinalg import SingularOperator, frobenius_rows, identity, inverses, inverted, per_row, su2_log, su2_logs

# Failure branches with less probability mass than this cannot move a
# 1e-12 comparison and are pruned from the exact tree.
_PRUNE = 1e-25

# Bytes of node arrays one OutcomeTree keeps, counted per kept node: residual, branch operators and, on a tree with a
# data state, the round (amplitudes, post-states, probability list). A qubit-family node with N outcomes counts
# 64 (N + 1) bytes and a qidN(3) node 1.4 KiB, so thousands fit, and a qidN(8) node 83 KiB with its round, so about 25.
# Nodes are offered to the cap in the order the walks build them, a batch at a time; nodes past it are built again per
# `run_trials` call (a stream chunk of a command). A kept node of a batch holds views of the batch's stacks, so the
# batch that crosses the cap keeps the rows of its nodes past the cap too. The cap counts arrays only: a qid2 tree
# after 20000 trials of 8 rounds keeps 2610 nodes, counted as 1.9 MiB, and holds 8.2 MiB in tracemalloc, most of it
# the LoopRounds, LoopTraces, `_Round` objects and program params around the arrays.
_RETAINED_BYTES = 2 * 1024 * 1024

# Bytes of node arrays (as `_RETAINED_BYTES` counts them) that one batch
# builds together: a sampled walk pops pending groups until their missing
# nodes would pass it; a batch holds at least one node. qid2 (0.8 KiB per
# node with its round) and qidN(3) (2.3 KiB) nodes batch by the hundred,
# qidN(8) (83 KiB) three at a time: larger budgets were faster there but
# raised the peak memory of a qidN(8) sample. The exact walk's batches below
# the first node that does not collapse count each node's bytes and its
# children's seeds, once per round left, twice, so qidN(2) nodes batch by up
# to 125 and dim-5 diagonal ones by up to 24, fewer with more rounds left.
_BATCH_BYTES = 256 * 1024

# Residuals from which the qid2 rule takes its SU(2) steps stacked (`su2_logs`, `zoo.su2_programs`) rather than one
# at a time: per residual the stacked encode took 67 us at one, 36 at two, 26 at three (against 27 one at a time),
# 20 at four and 4.6 at a hundred.
_STACKED_SU2 = 3


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
    SingularProgram that says why none exists, unraised: a refusal is a
    value, and only `next_program` of one (D, D) residual raises it. Each
    program has the bits of its residual encoded alone.

    The rules of the diagonal families (u1, bz, diagonal) read only the
    diagonals of target and residual: an `OutcomeTree` built with one checks
    once that the target and every block of the processor are diagonal.
    """

    basis_for: Callable[[ProcessorDefinition], ProgramBasis] = field(repr=False)
    success_labels: Callable[[ProcessorDefinition], frozenset[str]] = field(repr=False)
    _next_program: Callable = field(repr=False)
    _diagonal: bool = field(default=False, repr=False)  # set by _diagonal_rule

    def next_program(self, proc: ProcessorDefinition, target: np.ndarray, residual: np.ndarray):
        """The program of one (D, D) residual, raising its refusal, or the list `_next_program` gives a (K, D, D) stack."""
        r = np.asarray(residual, dtype=complex)
        out = self._next_program(proc, np.asarray(target, dtype=complex), r if r.ndim == 3 else r[None])
        if r.ndim == 3:
            return out
        if isinstance(out[0], Exception):
            raise type(out[0])(*out[0].args)  # a fresh one: a raised local would hold this frame in a cycle
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


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray | SingularProgram:
    """num / den, or the SingularProgram, unraised, when an entry of den vanishes against the largest."""
    size = np.abs(den)
    scale = size.max()
    if scale == 0 or (size <= 1e-12 * scale).any():
        return SingularProgram("applied operator has a vanishing diagonal entry")
    return num / den


def _diagonal_rule(encode: Callable, success_labels: Callable) -> CorrectionRule:
    """The rule whose programs are encode(proc, t, rs) on the diagonal t of the target and the (K, D) diagonals rs of the residuals."""

    def next_program(proc, target, residuals):
        return encode(proc, target.diagonal(), residuals.diagonal(0, 1, 2))

    return CorrectionRule(_computational_basis, success_labels, next_program, _diagonal=True)


def _each(encode: Callable) -> Callable:
    """The stacked encode that gives, for each diagonal r, the SingularProgram of a ratio m = t / r that `_safe_ratio`
    refuses, or else encode(proc, m, r): a program, or the unraised SingularProgram that says why none exists."""

    def encode_each(proc, t, rs):
        out = []
        for k in range(len(rs)):  # a loop costs a lone row less than comprehensions over the rows
            m = _safe_ratio(t, rs[k])
            out.append(m if isinstance(m, SingularProgram) else encode(proc, m, rs[k]))
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

    def encode(proc, m, r):
        # A corrected ratio, a power of z, can leave the range: then no program exists. The first
        # program is the target's own (residual I): a z out of range there is the caller's.
        corrected = not np.all(r == 1)
        if abs(m[0]) <= (1e-12 if corrected else 0.0) * abs(m).max():
            return SingularProgram("corrected ratio is unbounded (m00 ~ 0)")
        try:
            return zoo.geometric_program(complex(m[1] / m[0]), proc.program_dim)
        except zoo.InvalidParameter as exc:
            if corrected:
                return SingularProgram(f"corrected ratio is out of range: {exc}")
            raise

    return _diagonal_rule(_each(encode), lambda proc: frozenset(str(j) for j in range(proc.program_dim - 1)))


def diagonal_rule() -> CorrectionRule:
    """Entrywise-quotient correction for the qudit diagonal processor.

    Next program entries are lambda * (target entry) / (residual entry),
    lambda fixed by normalization. When an applied diagonal entry vanished,
    the failed operation is non-invertible and the loop cannot proceed: the
    rule gives a SingularProgram for that residual.
    """
    return _diagonal_rule(_each(lambda proc, m, r: zoo.diagonal_program(m)), lambda proc: frozenset({"0"}))


def _needed(target: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, list[SingularOperator | None]]:
    """target @ residual^{-1} for each residual of the (K, D, D) stack, and per residual None or its unraised refusal.

    A residual equal to I (the first round) gives the target itself.
    """
    first = (residuals == identity(residuals.shape[1])).all(axis=(1, 2)).tolist()
    invs, refusals = inverses(residuals)
    needed = target @ invs
    if any(first):
        needed[first] = target
    return needed, refusals


def _encoded(target: np.ndarray, residuals: np.ndarray, encode: Callable, one: Callable) -> list:
    """The program of target @ residual^{-1} for each residual of the (K, D, D) stack, or the unraised SingularOperator
    of one that cannot be inverted: encode(stack) gives the programs of a stack of matrices, one(m) the program of one.

    A lone residual takes the forms of one matrix (`inverted`, `one`), which cost less than those of a stack of one
    and give the same bits.
    """
    if len(residuals) == 1:
        r = residuals[0]
        if (r == identity(len(r))).all():
            return [one(target)]
        inv, refusal = inverted(r)
        return [one(target @ inv) if refusal is None else refusal]
    needed, refusals = _needed(target, residuals)
    if not any(refusals):
        return encode(needed)
    rows = [k for k, refusal in enumerate(refusals) if refusal is None]
    made = iter(encode(needed[rows]) if rows else ())
    return [next(made) if refusal is None else refusal for refusal in refusals]


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

    def one(m):
        # su2_log is the one unitarity check; it also rejects what a zero or overflowing m leaves
        with np.errstate(all="ignore"):
            u = m / np.sqrt(float((np.conjugate(m).T @ m).trace().real) / m.shape[0])
        return zoo.su2_program(su2_log(u)[0])

    def encode(m):
        if len(m) < _STACKED_SU2:
            return [one(m[k]) for k in range(len(m))]
        with np.errstate(all="ignore"):
            u = m / np.sqrt((np.conjugate(m).transpose(0, 2, 1) @ m).trace(axis1=1, axis2=2).real / m.shape[1])[:, None, None]
        return zoo.su2_programs(su2_logs(u)[0])

    def next_program(proc, target, residuals):
        return _encoded(target, residuals, encode, one)

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
    A residual that cannot be inverted gives its SingularOperator instead.
    """

    def next_program(proc, target, residuals):
        return _encoded(target, residuals, zoo.programs_for, zoo.program_for)

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
    return residuals * per_row([root / x for x in norms])


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

    def __init__(self, amps: np.ndarray, probs: np.ndarray, s: float, fails: list[int]):
        self.amps = amps
        self.probs = probs
        self.s = s
        self.fails = fails
        self.collapses: bool | None = None


def _entries(ops: np.ndarray, states: np.ndarray, success_idx: list[int], fail_idx: list[int]):
    """The exact entries of the nodes of the (K, N, D, D) stack of branch operators, each on its row of the (K, D) states.

    Returns the (K, N, D) amplitudes, the (K, N) probabilities and, per node, its success mass, its failure branches
    above `_PRUNE` and its probabilities as a list. One stacked `np.einsum` gives the amplitudes and one the
    probabilities, each row with the bits of the node's own `np.einsum`; the probabilities are a copy, so a row holds
    only the floats it counts.
    """
    amps = np.einsum("kbij,kj->kbi", ops, states)
    probs = np.einsum("kbi,kbi->kb", np.conjugate(amps), amps).real.copy()
    return amps, probs, [(*_head(p, probs[k], success_idx, fail_idx), p) for k, p in enumerate(probs.tolist())]


def _head(p: list[float], probs: np.ndarray, success_idx: list[int], fail_idx: list[int]) -> tuple[float, list[int]]:
    """A node's success mass and its failure branches above `_PRUNE`, from its probabilities as a list and as an array."""
    # numpy's sum of one entry is that entry
    s = p[success_idx[0]] if len(success_idx) == 1 else float(probs[success_idx].sum())
    return s, [i for i in fail_idx if p[i] > _PRUNE]


class _Node:
    """One outcome history: its residual and, unless uncorrectable, program and branch operators.

    On a tree with a data state, `round` caches the node's round on the
    state every trajectory brings to it, and `exact` its exact-walk entry.
    `kept`: the tree holds the node, so what is stored on it stays reachable.
    A node of a batch holds views of its stacks, kept or not: its residual,
    its round's amplitudes and its branch operators `ops`, whose stack is
    `batch`, with the node's index `row`.
    """

    __slots__ = ("residual", "program", "ops", "children", "round", "exact", "kept", "batch", "row")

    def __init__(self, residual: np.ndarray, program):
        self.residual = residual
        # None: no correcting program exists (uncorrectable); the rule gave the exception that says why
        self.program: ProgramState | None = program if isinstance(program, ProgramState) else None
        self.ops: np.ndarray | None = None  # set by the tree's build
        self.children: dict[int, _Node] = {}
        self.round: _Round | None = None
        self.exact: _Exact | None = None
        self.kept = False
        self.batch: np.ndarray | None = None
        self.row = 0


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
            self._root = self._build(np.eye(self.proc.data_dim, dtype=complex)[None])[0][0]
            self._root.kept = True
        return self._root

    def _build(self, residuals: np.ndarray) -> tuple[list[_Node], np.ndarray | None]:
        """Build, without retaining, the node of each residual of the (K, D, D) stack, each stage in one stacked call.

        The rule encodes the stack, and the programs' kets give one stack of branch operators, returned with
        the nodes (None if every node is uncorrectable); a node's arrays are views of the batch's stacks, with
        the bits of the node built alone. A lone node takes one node's forms and its own arrays.
        """
        if len(residuals) == 1:
            node = _Node(residuals[0], self.rule.next_program(self.proc, self.target, residuals)[0])
            if node.program is None:
                return [node], None
            node.ops = branch_operators(self.proc, node.program, self.basis)
            node.ops.setflags(write=False)
            return [node], node.ops[None]
        programs = self.rule.next_program(self.proc, self.target, residuals)
        nodes = [_Node(residuals[k], program) for k, program in enumerate(programs)]
        live = [node for node in nodes if node.program is not None]
        if not live:
            return nodes, None
        ops = branch_operators(self.proc, [node.program for node in live], self.basis)
        ops.setflags(write=False)
        for k, node in enumerate(live):
            node.ops, node.batch, node.row = ops[k], ops, k
        return nodes, ops

    def child(self, parent: _Node, i: int) -> _Node:
        """The node after `parent`'s branch i: `children` of the one pair, built in one node's forms."""
        node = parent.children.get(i)
        if node is None:
            node = self._build(_rescaled((parent.ops[i] @ parent.residual)[None]))[0][0]
            self._adopt(parent, i, node)
        return node

    def children(self, pairs: list[tuple[_Node | None, int]]) -> list[_Node]:
        """The node after each (parent, branch i) pair, the root for a parent None; the missing ones are built as one batch.

        In the order of `pairs`, a built node is kept if its parent is kept and it fits under the cap. Kept or
        not, it holds the views of the batch's stacks that `_build` gives it. One pair is `child`'s.
        """
        if len(pairs) == 1 and pairs[0][0] is not None:
            return [self.child(*pairs[0])]
        out, todo, steps, residuals = [], [], [], []
        for k, (parent, i) in enumerate(pairs):
            node = self.root if parent is None else parent.children.get(i)
            out.append(node)
            if node is None:
                todo.append(k)
                steps.append(parent.ops[i])
                residuals.append(parent.residual)
        if not todo:
            return out
        built = self._build(_rescaled(stacked(steps) @ stacked(residuals)))[0]
        for k, node in zip(todo, built):
            out[k] = node
            self._adopt(*pairs[k], node)
        return out

    def _adopt(self, parent: _Node, i: int, node: _Node) -> None:
        """Keep `node` as `parent`'s child i if the parent is kept and the node's arrays fit under the cap."""
        if parent.kept and self._keep(node.residual.nbytes + (0 if node.ops is None else node.ops.nbytes + self._round_bytes)):
            parent.children[i] = node
            node.kept = True

    def _keep(self, nbytes: int) -> bool:
        """Count nbytes against `_RETAINED_BYTES` if they fit; False: the caller must not keep them."""
        if self._retained + nbytes > _RETAINED_BYTES:
            return False
        self._retained += nbytes
        return True

    def rounds_at(self, nodes: list[_Node], states: list[np.ndarray]) -> list[_Round]:
        """The round of each correctable node on its state: cached on a tree with a state, else a throwaway.

        The missing rounds are computed together: one stacked `ops @ state` and one `branch_probabilities`,
        each with the bits of the node's round alone. The product reads the nodes' stack of branch operators
        (`_batch_stack`), broadcast over the states; a lone missing round is its node's own `ops @ state`. Each
        round's amplitudes are a view of the stacked product, cached or not.
        """
        out = [node.round for node in nodes]
        todo = [k for k, held in enumerate(out) if held is None]
        if not todo:
            return out
        if len(todo) == 1:  # one node's product, which costs less
            amps = (nodes[todo[0]].ops @ states[todo[0]])[None]
        else:
            amps = np.matmul(_batch_stack([nodes[k] for k in todo]), stacked([states[k] for k in todo])[:, None, :, None])[..., 0]
        for j, (k, probs) in enumerate(zip(todo, branch_probabilities(amps))):
            out[k] = _Round(amps[j], probs)
            if self.psi is not None:
                nodes[k].round = out[k]
        return out


def _batch_stack(nodes: list[_Node]) -> np.ndarray:
    """The stack of the nodes' branch operators, to broadcast over their states: one node's, (1, N, D, D), when every
    node is that node (the root of a pass of Haar-random states); their batch's own stack when they are its rows in
    order; else a (K, N, D, D) copy."""
    first = nodes[0]
    if all(node is first for node in nodes):
        return first.ops[None]
    batch = first.batch
    if batch is not None and len(batch) == len(nodes) and all(node.batch is batch and node.row == k for k, node in enumerate(nodes)):
        return batch
    return stacked([node.ops for node in nodes])


def run_loop(tree: OutcomeTree, psi, max_rounds: int, rng: np.random.Generator) -> LoopTrace:
    """Sample one trajectory from psi on a tree built without a data state.

    Rounds are sampled until a success label fires or `max_rounds` rounds
    have run; the trace records the program, outcome, branch probability and
    post-state of every round. On success the final post-state is
    proportional to target @ psi (up to global phase). Trajectories of one
    loop share its tree; the trace does not depend on what the tree holds.
    A tree built with a data state raises ValueError: `run_trials` walks
    it. This is `run_loops` with one state, drawing from rng.
    """
    return run_loops(tree, data_state(tree.proc, psi)[None], max_rounds, lambda j: rng.random())[0]


def run_loops(tree: OutcomeTree, states: np.ndarray, max_rounds: int, draw: Callable[[int], float]) -> list[LoopTrace]:
    """`run_loop` from each row of the (n, D) stack of data states, sampled together on a tree built without one.

    Trajectory j starts from states[j] and draws the uniform of each of its
    rounds by draw(j), in round order; each row must be a normalized data
    state. The trajectories' rounds at one node are computed together, so a
    pass of Haar-random states takes its first round in one stacked product.
    """
    if tree.psi is not None:
        raise ValueError("a tree built with a data state is sampled by run_trials")
    if states.ndim != 2 or states.shape[1] != tree.proc.data_dim:
        raise ValueError("states must be an (n, D) stack of data states")
    return _walk(tree, states, max_rounds, len(states), draw)


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


def _walk(tree: OutcomeTree, states: np.ndarray, max_rounds: int, n: int, draw: Callable[[int], float]) -> list[LoopTrace]:
    """The sampled loop of n trajectories, depth first over their outcome histories.

    `states` is the (D,) data state all n start from, or a (n, D) stack of
    each one's. A frame on the stack is one group: the trajectories that
    share an outcome history (and, at the root, a state), with the parent
    node, the branch drawn there, the parent's round and the rounds so far.
    Popping a group builds its node, draws each member's next uniform over
    the node's probabilities and pushes one group per drawn branch that
    neither succeeded nor spent the budget, to be popped in label order.
    Pending groups hold only parents on the current path, so no other
    unretained node is alive.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    labels, success = tree.basis.labels, tree.success
    out: list = [None] * n
    if states.ndim == 1:
        roots, stack = states[None], [(None, 0, None, (), range(n))]
    else:
        roots, stack = states, [(None, 0, None, (), (j,)) for j in range(n - 1, -1, -1)]
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
        helds = tree.rounds_at([node for node, _, _ in live], [rounds[-1].post_state if rounds else roots[group[0]] for _, rounds, group in live])
        for k, (node, rounds, group) in enumerate(live):
            held, helds[k] = helds[k], None  # a round no pending group holds is freed at once
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


def _state_independent(ops: np.ndarray, probs: np.ndarray) -> list[bool]:
    """For each node of the (K, N, D, D) stack of branch operators, with its row of the (K, N) probabilities: whether
    every branch operator is proportional to an isometry (a nan deviation does not count against it).

    Then the node's outcome probabilities cannot depend on the data state, which is what lets the exact tree
    collapse. One `_isometry_deviations` tests every (node, branch) of the stack. A lone node's (N, D, D) operators
    with its (N,) probabilities give its one answer.
    """
    if ops.ndim == 3:
        return [not any(x > 1e-11 for x in _isometry_deviations(ops, probs))]
    k, n, d = ops.shape[:3]
    devs = _isometry_deviations(ops.reshape(k * n, d, d), probs.reshape(k * n))
    return [not any(x > 1e-11 for x in devs[j : j + n]) for j in range(0, k * n, n)]


def exact_walk(tree: OutcomeTree, n: int) -> float:
    """Exact cumulative success probability of the first n rounds of `tree`'s loop.

    The tree must have been built with the data state the loop starts from.
    Each node's entry is computed from the node's branch operators and data
    state. Nodes whose branch operators are all proportional to isometries
    have state-independent probabilities; their failure subtrees are
    congruent (the residuals are conjugation-related), so a single
    representative child is evaluated and retained, with its entry while it
    fits within `_RETAINED_BYTES`: it is the chain that deeper round budgets
    walk again. Below the first node that does not collapse (a non-unitary
    target, or rounding drift at depth), the subtree is walked depth first in
    batches and not retained (`_values`). The collapsed and fully enumerated
    evaluations are checked against each other for small n in the test
    suite. The value at n depends neither on what the tree already holds nor
    on `_BATCH_BYTES`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tree.psi is None:
        raise ValueError("the exact walk needs a tree built with a data state")
    return float(_fold(tree, tree.root, tree.psi, n))


def _fold(tree: OutcomeTree, node: _Node, state, remaining: int):
    """Exact success mass of `remaining` rounds from `node`; `state` is its data state or (parent entry, branch).

    The loop steps from each collapsing node to its representative child, and folds the chain as s + (1 - s) v.
    The first node that does not collapse gives s + sum p_j v_j over its failure branches j, in label order, with the
    values v_j of its children from one batched depth-first walk (`_values`).

    A node's entry is made from its state unless it holds one: `_entries`' row of the node, from one node's einsums,
    which cost less than a stack of one. A kept node holds it while it fits in `_RETAINED_BYTES`; any other node is
    transient and holds it anyway.
    """
    links, value = [], 0.0  # an uncorrectable node adds nothing
    while node.program is not None:
        entry = node.exact
        if entry is None:
            if isinstance(state, tuple):
                up, i = state
                state = up.amps[i] / math.sqrt(up.probs[i])
            amps = np.einsum("bij,j->bi", node.ops, state)
            probs = np.einsum("bi,bi->b", np.conjugate(amps), amps).real.copy()
            entry = _Exact(amps, probs, *_head(probs.tolist(), probs, tree._success_idx, tree._fail_idx))
            if not node.kept or tree._keep(entry.amps.nbytes + entry.probs.nbytes):
                node.exact = entry
        if remaining == 1 or not entry.fails:
            value = entry.s
            break
        if entry.collapses is None:
            entry.collapses = _state_independent(node.ops, entry.probs)[0]
        if not entry.collapses:
            p, js = entry.probs.tolist(), entry.fails
            seeds = _seeds(node.residual[None], node.ops[None], entry.amps[None], entry.probs[None], [0] * len(js), js)
            value = _folded(entry.s, [p[j] for j in js], iter(_values(tree, *seeds, remaining - 1)))
            break
        i = entry.fails[0]
        links.append(entry.s)
        node, state, remaining = tree.child(node, i), (entry, i), remaining - 1
    for s in reversed(links):
        value = s + (1.0 - s) * value
    return value


def _seeds(residuals: np.ndarray, ops: np.ndarray, amps: np.ndarray, probs: np.ndarray, ks: list[int], js: list[int]):
    """The residual and the data state after branch js[m] of node ks[m], for nodes given as stacks (residuals, branch
    operators, and their entry's amplitudes and probabilities): `OutcomeTree.children`'s stacked product and
    rescaling, and the post-state amplitude over the root of its probability."""
    return _rescaled(ops[ks, js] @ residuals[ks]), amps[ks, js] / np.sqrt(probs[ks, js])[:, None]


def _folded(s: float, coefs: list[float], below) -> float:
    """s + c v over the coefficients, in order, with the next value v of `below` for each."""
    for c in coefs:
        s = s + c * next(below)
    return s


def _values(tree: OutcomeTree, residuals: np.ndarray, states: np.ndarray, remaining: int) -> list:
    """Exact success masses of `remaining` rounds from the node of each residual of the (K, D, D) stack, on its row of
    the (K, D) data states: the depth-first fold, walked in batches (`_batch`).

    A level that fits one batch is built as one, and the walk steps down to its children in a loop, so a chain of
    single nodes never recurses; a wider level is cut into batches, each but the last walked by recursion. The levels
    keep one record per node, its value or the (s, coefficients) that `_folded` turns into its value, and fold bottom
    up, each node's terms in label order, so every value has the same bits whatever the batch width.
    """
    fanout, unit = len(tree._fail_idx), states.itemsize * (states.shape[1] + residuals[0].size)  # one child's seeds
    levels = []
    while True:
        # per node of the batch, its arrays and its children's seeds once per round left (the levels below it hold
        # about as many), counted twice for the node's objects and the levels' records
        width = max(1, _BATCH_BYTES // (2 * (remaining * fanout * unit + tree._node_bytes)))
        apart = []  # the values of every batch but the last
        for lo in range(0, len(residuals) - width, width):
            apart += _values(tree, residuals[lo : lo + width], states[lo : lo + width], remaining)
        items, seeds = _batch(tree, residuals[len(apart) :], states[len(apart) :], remaining)
        levels.append(apart + items)
        if seeds is None:
            break
        residuals, states = seeds
        remaining -= 1
    values: list = []
    for items in reversed(levels):
        below = iter(values)
        values = [_folded(*x, below) if type(x) is tuple else x for x in items]
    return values


def _batch(tree: OutcomeTree, residuals: np.ndarray, states: np.ndarray, remaining: int) -> tuple[list, tuple | None]:
    """Build the nodes of the residual stack, and give each its record in a level: its value, or (s, coefficients)
    for a node that goes on; and the residuals and states of the children those records fold, as stacks (None if
    none). A collapsing node goes on to its representative child with coefficient 1 - s, another to each failure
    branch j with coefficient p_j.

    The nodes' entries, their collapse tests and the children's seeds are each one stacked call; the nodes are dropped
    on return.
    """
    nodes, ops = tree._build(residuals)
    out: list = [0.0] * len(nodes)  # an uncorrectable node adds nothing
    live = [k for k, node in enumerate(nodes) if node.program is not None]
    if not live:
        return out, None
    if len(live) < len(nodes):
        residuals, states = residuals[live], states[live]
    amps, probs, heads = _entries(ops, states, tree._success_idx, tree._fail_idx)
    test = [m for m, (_, fails, _) in enumerate(heads) if remaining > 1 and fails]
    flags = dict(zip(test, _state_independent(ops[test], probs[test]))) if test else {}
    ks, js = [], []
    for m, (k, (s, fails, p)) in enumerate(zip(live, heads)):
        if m not in flags:
            out[k] = s
            continue
        branches = fails[:1] if flags[m] else fails
        out[k] = (s, [1.0 - s] if flags[m] else [p[j] for j in fails])
        ks += [m] * len(branches)
        js += branches
    return out, (_seeds(residuals, ops, amps, probs, ks, js) if ks else None)


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
