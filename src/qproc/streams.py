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
about 25 us per stream (Python 3.11, numpy 2.4, one Xeon core), nearly all
of it SeedSequence hashing and PCG64 seeding run as Python-level code, which
is most of a single-shot sweep. A command's trial streams differ only in
their last index, so `pcg64_states(entropy, ks)` computes the PCG64 state of
`derive_stream(*entropy, k)` for a whole run of k at once, in numpy uint32
and uint64 arithmetic, one chunk of `CHUNK` streams at a time:

1. entropy words: every int becomes its little-endian 32-bit words, [0] for
   0, concatenated (numpy's `_coerce_to_uint32_array`);
2. the SeedSequence pool: hashmix of the first four words (zeros past the
   entropy), the all-pairs mix, then one more pass for each word beyond the
   four-word pool;
3. `generate_state(4, uint64)`: eight hashed pool words paired little-endian
   into the 128-bit seed and increment;
4. PCG64 `srandom`: inc = (increment << 1) | 1, state = (inc + seed) * M + inc
   modulo 2^128, with M the PCG 128-bit multiplier.

It is bit-identical to `derive_stream`: every step is integer arithmetic
modulo 2^32 or 2^128, which numpy's unsigned arrays wrap exactly, so no
rounding exists to differ. The hash multipliers advance the same way for
every stream whatever the data, so one numpy operation serves a chunk.
`first_uniforms` takes one more PCG64 step (XSL-RR output, `>> 11`,
`* 2**-53`), which is `Generator.random()`; `reseeded` sets one reused
Generator to each state in turn. `uniform_draws` holds a chunk's states as
Python ints and takes the same step per draw, so a walk that draws each
trial's uniforms when that trial reaches its next round keeps one 128-bit
int per trial, not a trials x rounds matrix. The tests compare all of them
with `derive_stream` bit for bit.

(O'Neill, "PCG: a family of simple fast space-efficient statistically good
algorithms for random number generation", HMC-CS-2014-0905; NumPy NEP 19.)
"""
from __future__ import annotations

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


def _hash_constants(init: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """(xor constant, multiplier) of successive SeedSequence hash steps."""
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hash(value: np.ndarray, consts: Iterator) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _U32_16)


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy over columns of entropy words."""
    consts = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
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
    consts = _hash_constants(_INIT_B, _MULT_B)
    words = [_hash(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * j] | (words[2 * j + 1] << _U64[32]) for j in range(4))
    inc_hi = (seq_hi << _U64[1]) | (seq_lo >> _U64[63])
    inc_lo = (seq_lo << _U64[1]) | _U64[1]
    # srandom: state 0 steps to inc; add the seed; step once more.
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo).astype(np.uint64)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def pcg64_states(entropy: Sequence[int], ks: range) -> Iterator[tuple[np.ndarray, ...]]:
    """PCG64 states of derive_stream(*entropy, k) for k in ks, one chunk at a time.

    Yields (state_hi, state_lo, inc_hi, inc_lo) uint64 arrays of at most
    CHUNK streams each, in the order of ks; the 128-bit state and increment
    are hi * 2^64 + lo.
    """
    if ks.step != 1:
        raise ValueError("trial indices must be a contiguous run")
    if ks and ks.start < 0:
        raise ValueError("expected non-negative integer")
    head = [w for e in entropy for w in _words(int(e))]
    k = ks.start
    while k < ks.stop:
        # Stop at the next multiple of 2^32: the words above the lowest are fixed within a piece.
        n = min(CHUNK, ks.stop - k, (1 << 32) - (k & _MASK32))
        high = k >> 32
        tail = _words(high) if high else []
        low = np.arange(k & _MASK32, (k & _MASK32) + n, dtype=np.uint64).astype(np.uint32)
        columns = [np.full(n, w, dtype=np.uint32) for w in head] + [low] + [np.full(n, w, dtype=np.uint32) for w in tail]
        yield _chunk_states(columns)
        k += n


def first_uniforms(entropy: Sequence[int], ks: range) -> Iterator[np.ndarray]:
    """derive_stream(*entropy, k).random() for k in ks, one chunk array at a time."""
    for hi, lo, inc_hi, inc_lo in pcg64_states(entropy, ks):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: rotate hi ^ lo right by the top six bits of the state.
        x, rot = hi ^ lo, hi >> _U64[58]
        out = (x >> rot) | (x << ((_U64[64] - rot) & _U64[63]))
        yield (out >> _U64[11]).astype(np.float64) * (1.0 / 9007199254740992.0)


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


def uniform_draws(entropy: Sequence[int], ks: range) -> Iterator[tuple[int, Callable[[int], float]]]:
    """(n, draw) per chunk of ks: draw(j) is the next derive_stream(*entropy, k).random() of the chunk's j-th k.

    Each stream's PCG64 state is a Python int, stepped on each call for that
    stream alone, so the streams of a chunk may be drawn in any interleaving.
    """
    for hi, lo, inc_hi, inc_lo in pcg64_states(entropy, ks):
        states = [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]
        incs = [h << 64 | l for h, l in zip(inc_hi.tolist(), inc_lo.tolist())]

        def draw(j: int, states=states, incs=incs) -> float:
            s = states[j] = (states[j] * _PCG_MULT + incs[j]) & _MASK128
            x, rot = ((s >> 64) ^ s) & _MASK64, s >> 122  # XSL-RR, as in first_uniforms
            return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * (1.0 / 9007199254740992.0)

        yield len(states), draw
