"""The batch stream derivation equals derive_stream bit for bit.

`pcg64_states`, `first_uniforms`, `reseeded` and `uniform_draws` recompute
numpy's SeedSequence hash and PCG64 seeding for a run of trailing indices;
every draw they lead to must equal the draw of derive_stream(*entropy, k).
With a run of grid points as well, passes span points, and every draw must
equal that of derive_stream(*entropy, i, k).
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import streams
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


def _assert_grid_matches(entropy, points, ks):
    """With points, each piece is one point's and comes in stream order; its draws are derive_stream(*entropy, i, k)'s."""
    firsts, draws, order = {i: [] for i in points}, {i: [] for i in points}, []
    for i, r in first_uniforms(entropy, ks, points=points):
        order.append(i)
        firsts[i].append(r)
    assert order == sorted(order)
    for i, (n, draw) in uniform_draws(entropy, ks, points=points):
        draws[i] += [(draw(j), draw(j)) for j in range(n)]  # each stream's first two random() calls
    sizes = [len(hi) for hi, _, _, _ in pcg64_states(entropy, ks, points=points)]
    assert sum(sizes) == len(points) * len(ks) and max(sizes, default=0) <= streams.CHUNK
    for i in points:
        want = np.array([derive_stream(*entropy, i, k).random(2) for k in ks]).reshape(-1, 2)
        assert np.concatenate([np.empty(0), *firsts[i]]).tobytes() == want[:, 0].tobytes()
        assert np.array(draws[i]).reshape(-1, 2).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [2**32, 2**64 + 1, 2**128 + 1])
@pytest.mark.parametrize("trials", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1])
def test_passes_spanning_points_match_derive_stream(seed, trials):
    # points x trials straddles a pass boundary, from 4098 one-stream points to three points of CHUNK + 1
    points = range(5, 5 + max(3, CHUNK // trials + 2))
    _assert_grid_matches((seed,), points, trial_indices(trials))


@pytest.mark.parametrize(
    "entropy, points, ks",
    [
        ((2**200 + 7, 3), range(4), range(1, 7)),  # eight head words: longer than the four-word pool
        ((2**64 + 1,), range(2**32 - 2, 2**32 + 1), range(2**32 - 3, 2**32 + 2)),  # i and k gain a word
        ((7,), range(3), range(2**32 - 1, 2**32 + 1)),  # every point's ks gain a word
        ((2**128 + 1,), range(2**32 - 1, 2**32 + 2), range(2**64 - 1, 2**64 + 1)),  # k gains its third word
        ((1,), range(2), range(0)),
        ((1,), range(0), range(3)),
    ],
)
def test_passes_spanning_points_match_derive_stream_on_edges(entropy, points, ks):
    _assert_grid_matches(entropy, points, ks)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**130),
    point=st.integers(0, 2**33),
    count=st.integers(0, 6),
    start=st.integers(0, 2**33),
    trials=st.integers(0, 12),
    chunk=st.integers(1, 20),
)
def test_passes_spanning_points_match_derive_stream_for_any_layout(seed, point, count, start, trials, chunk):
    with mock.patch.object(streams, "CHUNK", chunk):
        _assert_grid_matches((seed,), range(point, point + count), range(start, start + trials))


def test_passes_run_across_points_and_split_where_an_index_gains_a_word():
    sizes = [len(hi) for hi, _, _, _ in pcg64_states((1,), trial_indices(2000), points=range(3))]
    assert sizes == [CHUNK, 6000 - CHUNK]
    sizes = [len(hi) for hi, _, _, _ in pcg64_states((1,), range(2**32 - 2, 2**32 + 1), points=range(2))]
    assert sizes == [2, 1, 2, 1]
    sizes = [len(hi) for hi, _, _, _ in pcg64_states((1,), range(3), points=range(2**32 - 1, 2**32 + 1))]
    assert sizes == [3, 3]


def test_passes_reject_a_grid_derive_stream_cannot_express():
    for points in (range(0, 6, 2), range(-1, 2)):
        with pytest.raises(ValueError):
            list(pcg64_states((1,), range(3), points=points))
