"""The batch stream derivation equals derive_stream bit for bit.

`pcg64_states`, `first_uniforms`, `reseeded` and `uniform_draws` recompute
numpy's SeedSequence hash and PCG64 seeding for a run of trailing indices;
every draw they lead to must equal the draw of derive_stream(*entropy, k).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc.streams import CHUNK, derive_stream, first_uniforms, pcg64_states, reseeded, trial_indices, uniform_draws


def _assert_matches(entropy, ks, n=50, order_seed=0):
    got = np.concatenate([np.empty(0), *first_uniforms(entropy, ks)])
    want = np.array([derive_stream(*entropy, k).random() for k in ks])
    assert got.tobytes() == want.tobytes()
    seen = 0
    for k, rng in zip(ks, reseeded(entropy, ks)):
        ref = derive_stream(*entropy, k)
        assert [rng.random() for _ in range(3)] == [ref.random() for _ in range(3)]
        assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
        seen += 1
    assert seen == len(ks)
    # uniform_draws: each stream's first n random() calls, the streams of a chunk interleaved
    draws = {k: [] for k in ks}
    offset = 0
    for size, draw in uniform_draws(entropy, ks):
        calls = np.repeat(np.arange(size), n)
        np.random.default_rng(order_seed).shuffle(calls)
        for j in calls.tolist():
            draws[ks[offset + j]].append(draw(j))
        offset += size
    assert offset == len(ks)
    for k in ks:
        assert np.array(draws[k]).tobytes() == derive_stream(*entropy, k).random(n).tobytes()


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**130),
    index=st.integers(0, 2**40),
    start=st.integers(0, 2**33),
    count=st.integers(0, 150),
    n=st.integers(1, 50),
    order_seed=st.integers(0, 2**32 - 1),
)
def test_batch_matches_derive_stream(seed, index, start, count, n, order_seed):
    _assert_matches((seed, index), range(start, start + count), n, order_seed)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 1])
@pytest.mark.parametrize("index", [0, 2**32 - 1])
def test_batch_matches_derive_stream_on_edges(seed, index):
    _assert_matches((seed, index), range(0, 4))  # k = 0 is one zero word
    _assert_matches((seed, index), range(CHUNK - 3, CHUNK + 3))  # crosses a chunk boundary
    _assert_matches((seed, index), range(2**32 - 2, 2**32 + 2))  # the last index gains a word


@pytest.mark.parametrize("entropy", [(), (1007,), (2**200 + 7, 3, 2**70)])
def test_batch_matches_derive_stream_for_any_entropy_prefix(entropy):
    _assert_matches(entropy, range(5))


def test_chunks_cover_the_run_in_order():
    sizes = [len(hi) for hi, _, _, _ in pcg64_states((1, 2), range(3, 3 + 2 * CHUNK + 5))]
    assert sizes == [CHUNK, CHUNK, 5]
    sizes = [len(hi) for hi, _, _, _ in pcg64_states((1, 2), range(2**32 - 3, 2**32 + 2))]
    assert sizes == [3, 2]
    assert list(pcg64_states((1, 2), range(4, 4))) == []


def test_trial_indices_skip_the_auxiliary_stream():
    assert trial_indices(3) == range(1, 4)


@pytest.mark.parametrize("entropy, ks", [((1, 2), range(0, 10, 2)), ((-1,), range(3)), ((1,), range(-2, 3))])
def test_batch_rejects_what_derive_stream_cannot_express(entropy, ks):
    with pytest.raises(ValueError):
        list(pcg64_states(entropy, ks))
