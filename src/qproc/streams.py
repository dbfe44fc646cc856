"""Deterministic random-stream derivation.

One documented rule everywhere: a stream is PCG64 seeded with
SeedSequence([master_seed, *indices]). Trial t of experiment e uses indices
(e, t + 1); index (e, 0) is reserved for auxiliary draws (random targets or
input states) of that experiment. Streams with distinct index tuples are
statistically independent, so trials may run concurrently without changing
any output byte.

Batch derivation
----------------
`derive_stream` is the rule and the reference. Seeding through it costs
about 12 us per stream (best of 20 runs of 2000 streams; Python 3.11.7,
numpy 2.4.6, one core of a 2-vCPU Xeon VM), nearly all of it SeedSequence
hashing and PCG64 seeding run as Python-level code. A command's trial
streams differ only in their last index, or, for a sweep, in the grid-point
index and the last, so `pcg64_states(entropy, ks, points)` computes the PCG64
state of `derive_stream(*entropy, k)` (or `derive_stream(*entropy, i, k)`
for i in points) for a whole run at once, in numpy uint32 and uint64
arithmetic, in passes of at most `CHUNK` streams that run on across grid
points, so that a sweep of short points still fills whole passes:

1. entropy words: every int becomes its little-endian 32-bit words, [0] for
   0, concatenated (numpy's `_coerce_to_uint32_array`);
2. the SeedSequence pool: hashmix of the first four words (zeros past the
   entropy), the all-pairs mix, then one more pass for each word beyond the
   four-word pool;
3. `generate_state(4, uint64)`: eight hashed pool words paired little-endian
   into the 128-bit seed and increment;
4. PCG64 `srandom`: inc = (increment << 1) | 1, state = (inc + seed) * M + inc
   modulo 2^128, with M the PCG 128-bit multiplier.

A pass splits wherever an index gains a 32-bit word (at each multiple of
2^32), so the words above an index's lowest are the same for all its
streams. Those words, the entropy prefix (the seed, and the experiment index
of a `sample` run) and the grid-point index of a pass within one point go
in as one-element columns that broadcast, so their hashes and mixes run once
per pass, not once per stream.

It is bit-identical to `derive_stream`: every step is integer arithmetic
modulo 2^32 or 2^128, which numpy's unsigned arrays wrap exactly, so no
rounding exists to differ. The hash multipliers advance the same way for
every stream whatever the data, so one numpy operation serves a pass, and
the constants are made once per entropy length (`_hash_constants`).
`first_uniforms` takes one more PCG64 step (XSL-RR output, `>> 11`,
`* 2**-53`), which is `Generator.random()`; `reseeded` sets one reused
Generator to each state in turn. `uniform_draws` holds a pass's states as
Python ints and takes the same step per draw, so a walk that draws each
trial's uniforms when that trial reaches its next round keeps one 128-bit
int per trial, not a trials x rounds matrix. With points, both cut each pass
into pieces, one per grid point it reaches, and tag each piece with its
point. The tests compare all of them with `derive_stream` bit for bit.

(O'Neill, "PCG: a family of simple fast space-efficient statistically good
algorithms for random number generation", HMC-CS-2014-0905; NumPy NEP 19.)
"""
from __future__ import annotations

import functools
from collections.abc import Callable, Iterator, Sequence

import numpy as np


def derive_stream(master_seed: int, *indices: int) -> np.random.Generator:
    """PCG64 generator for (master_seed, *indices); portable across platforms."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *[int(i) for i in indices]]))


def trial_indices(trials: int) -> range:
    """Last stream index of trials 0 .. trials - 1: t + 1 (0 is the auxiliary stream)."""
    return range(1, trials + 1)


# Streams derived per vectorised pass: memory stays flat whatever the trial count.
CHUNK = 4096

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# SeedSequence hash constants (numpy.random.bit_generator).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_U32_16 = np.uint32(16)
# PCG64's 128-bit LCG multiplier, as 64-bit halves and their 32-bit halves.
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_M64_HI, _M64_LO = np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO)
_M32_LO, _M32_HI = np.uint64(_PCG_MULT_LO & _MASK32), np.uint64(_PCG_MULT_LO >> 32)
_U64_MASK32 = np.uint64(_MASK32)
_U64 = {s: np.uint64(s) for s in (1, 11, 32, 58, 63, 64)}
_PCG_MULT = _PCG_MULT_HI << 64 | _PCG_MULT_LO
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> tuple[tuple[np.uint32, np.uint32], ...]:
    """(xor constant, multiplier) of the first count SeedSequence hash steps; they never depend on the data."""
    steps, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        steps.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return tuple(steps)


def _hash(value: np.ndarray, consts: Iterator) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _U32_16)


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy over columns of entropy words.

    A column holds one word per stream, or one word that every stream shares;
    the shared ones broadcast, so their hashes and mixes run once.
    """
    extra = max(len(entropy) - _POOL_SIZE, 0)
    consts = iter(_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra)))
    zero = np.zeros(1, dtype=np.uint32)
    pool = [_hash(entropy[i] if i < len(entropy) else zero, consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, consts))
    return pool


def _mulhi(a: np.ndarray) -> np.ndarray:
    """High 64 bits of a * (low half of the PCG multiplier)."""
    a0, a1 = a & _U64_MASK32, a >> _U64[32]
    p00, p01, p10, p11 = a0 * _M32_LO, a0 * _M32_HI, a1 * _M32_LO, a1 * _M32_HI
    mid = (p00 >> _U64[32]) + (p01 & _U64_MASK32) + (p10 & _U64_MASK32)
    return p11 + (p01 >> _U64[32]) + (p10 >> _U64[32]) + (mid >> _U64[32])


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step: state * M + inc modulo 2^128, on (hi, lo) halves."""
    prod_lo = lo * _M64_LO
    prod_hi = _mulhi(lo) + hi * _M64_LO + lo * _M64_HI
    new_lo = prod_lo + inc_lo
    new_hi = prod_hi + inc_hi + (new_lo < prod_lo).astype(np.uint64)
    return new_hi, new_lo


def _chunk_states(entropy: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    pool = _pool(entropy)
    consts = iter(_hash_constants(_INIT_B, _MULT_B, 8))
    words = [_hash(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * j] | (words[2 * j + 1] << _U64[32]) for j in range(4))
    inc_hi = (seq_hi << _U64[1]) | (seq_lo >> _U64[63])
    inc_lo = (seq_lo << _U64[1]) | _U64[1]
    # srandom: state 0 steps to inc; add the seed; step once more.
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo).astype(np.uint64)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _check_run(run: range, what: str) -> None:
    if run.step != 1:
        raise ValueError(f"{what} indices must be a contiguous run")
    if run and run.start < 0:
        raise ValueError("expected non-negative integer")


def _blocks(run: range) -> Iterator[range]:
    """The run cut at multiples of 2^32: within a block, every word above an index's lowest is fixed."""
    k = run.start
    while k < run.stop:
        end = min(run.stop, (k | _MASK32) + 1)
        yield range(k, end)
        k = end


def _high(index: int) -> list[np.ndarray]:
    """One-element columns of an index's words above the lowest, which every stream of a pass shares."""
    return [np.array([w], dtype=np.uint32) for w in _words(index >> 32)] if index >> 32 else []


def _runs(ks: range, points: range | None) -> Iterator[tuple[range | None, range]]:
    """(points, ks) blocks in stream order; passes span the points of a block."""
    if points is None:
        yield from ((None, block) for block in _blocks(ks))
    elif not ks or ks.start >> 32 == (ks.stop - 1) >> 32:
        yield from ((rows, ks) for rows in _blocks(points))
    else:  # every point's ks gain a word part way: a pass stops there and at each point's end
        yield from ((range(i, i + 1), block) for i in points for block in _blocks(ks))


def _passes(entropy: Sequence[int], ks: range, points: range | None):
    """(pieces, states) per pass of at most CHUNK streams, in stream order.

    A piece (i, start, stop) says that the pass's streams start:stop are
    grid point i's; i is None without points, and the one piece is the pass.
    Words that every stream of the pass shares go in as one-element columns.
    """
    _check_run(ks, "trial")
    if points is not None:
        _check_run(points, "grid-point")
    head = [np.array([w], dtype=np.uint32) for e in entropy for w in _words(int(e))]
    for rows, cols in _runs(ks, points):
        t, k_low = len(cols), cols.start & _MASK32
        total = t if rows is None else t * len(rows)
        for f in range(0, total, CHUNK):
            n = min(CHUNK, total - f)
            first, last = f // t, (f + n - 1) // t
            cuts = [f, *range((first + 1) * t, (last + 1) * t, t), f + n]
            pieces = [(None if rows is None else rows[first + q], a - f, b - f) for q, (a, b) in enumerate(zip(cuts, cuts[1:]))]
            # stream f + g of the run is row r = (f + g) // t, trial k_low + f + g - r t; one shared row within a piece
            row = np.repeat(np.arange(first, last + 1), [b - a for _, a, b in pieces]) if last > first else np.array([first])
            trial = (np.arange(f, f + n) - row * t + k_low).astype(np.uint32)
            point = [] if rows is None else [(row + (rows.start & _MASK32)).astype(np.uint32), *_high(rows.start)]
            yield pieces, _chunk_states([*head, *point, trial, *_high(cols.start)])


def pcg64_states(entropy: Sequence[int], ks: range, points: range | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """PCG64 states of derive_stream(*entropy, k) for k in ks, one pass at a time.

    With points, the streams are derive_stream(*entropy, i, k) for i in
    points and k in ks, point by point, and a pass runs on across points.
    Yields (state_hi, state_lo, inc_hi, inc_lo) uint64 arrays of at most
    CHUNK streams each, in that order; the 128-bit state and increment are
    hi * 2^64 + lo.
    """
    for _, states in _passes(entropy, ks, points):
        yield states


def first_uniforms(entropy: Sequence[int], ks: range, points: range | None = None) -> Iterator:
    """derive_stream(*entropy, k).random() for k in ks, one array per pass.

    With points (see `pcg64_states`), one (i, array) per piece of a pass
    that grid point i's streams fill.
    """
    for pieces, (hi, lo, inc_hi, inc_lo) in _passes(entropy, ks, points):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: rotate hi ^ lo right by the top six bits of the state.
        x, rot = hi ^ lo, hi >> _U64[58]
        out = (x >> rot) | (x << ((_U64[64] - rot) & _U64[63]))
        r = (out >> _U64[11]).astype(np.float64) * (1.0 / 9007199254740992.0)
        for i, a, b in pieces:
            yield r if i is None else (i, r[a:b])


def reseeded(entropy: Sequence[int], ks: range) -> Iterator[np.random.Generator]:
    """One Generator, set before each yield to the state of derive_stream(*entropy, k).

    It draws exactly as derive_stream(*entropy, k) would, so consume it
    before advancing the iterator: the next step reseeds the same object.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for hi, lo, inc_hi, inc_lo in pcg64_states(entropy, ks):
        for sh, sl, ih, il in zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
            state["state"] = {"state": sh << 64 | sl, "inc": ih << 64 | il}
            bitgen.state = state
            yield rng


def _draws(states: list[int], incs: list[int]) -> tuple[int, Callable[[int], float]]:
    def draw(j: int) -> float:
        s = states[j] = (states[j] * _PCG_MULT + incs[j]) & _MASK128
        x, rot = ((s >> 64) ^ s) & _MASK64, s >> 122  # XSL-RR, as in first_uniforms
        return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * (1.0 / 9007199254740992.0)

    return len(states), draw


def uniform_draws(entropy: Sequence[int], ks: range, points: range | None = None) -> Iterator:
    """(n, draw) per pass of ks: draw(j) is the next derive_stream(*entropy, k).random() of the pass's j-th k.

    Each stream's PCG64 state is a Python int, stepped on each call for that
    stream alone, so the streams of a pass may be drawn in any interleaving.
    With points (see `pcg64_states`), one (i, (n, draw)) per piece of a pass
    that grid point i's streams fill, j counting from the piece's first.
    """
    for pieces, (hi, lo, inc_hi, inc_lo) in _passes(entropy, ks, points):
        states = [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]
        incs = [h << 64 | l for h, l in zip(inc_hi.tolist(), inc_lo.tolist())]
        for i, a, b in pieces:
            yield _draws(states, incs) if i is None else (i, _draws(states[a:b], incs[a:b]))
