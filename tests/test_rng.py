import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcalab.rng import CounterRng

ADDRESS = st.tuples(st.integers(0, 7), st.integers(0, 2**63), st.integers(0, 2**63))


def _draw_some(gen, kind, n):
    """Draws that leave the bit generator's buffers partly used."""
    if kind == "random":
        gen.random(2 * n + 1)  # odd length: 64-bit words, Philox buffers 4
    elif kind == "integers":
        gen.integers(0, 3, size=2 * n + 1)  # small range: 32-bit draws
    elif kind == "uint32":
        gen.integers(0, 2**32, dtype=np.uint32)  # leaves has_uint32 set


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    start=ADDRESS,
    target=ADDRESS,
    kind=st.sampled_from(["none", "random", "integers", "uint32"]),
    n=st.integers(0, 6),
)
def test_seek_matches_fresh_block(seed, stream, start, target, kind, n):
    rng = CounterRng(seed, stream)
    gen = rng.block(*start)
    _draw_some(gen, kind, n)
    rng.seek(gen, *target)
    fresh = rng.block(*target)
    # a 32-bit draw first: a stale half-word would show here
    assert np.array_equal(
        gen.integers(0, 2**32, size=3, dtype=np.uint32),
        fresh.integers(0, 2**32, size=3, dtype=np.uint32),
    )
    assert np.array_equal(gen.random(7), fresh.random(7))
    assert np.array_equal(gen.integers(0, 5, size=9), fresh.integers(0, 5, size=9))


@pytest.mark.parametrize("address", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1 << 64, 0, 0)])
def test_bad_addresses_are_refused(address):
    rng = CounterRng(3)
    gen = rng.block(1)
    with pytest.raises(ValueError):
        rng.block(*address)
    with pytest.raises(ValueError):
        rng.seek(gen, *address)


def test_keys_keep_all_64_bits():
    # seeds past 2^63 keep their low bits and no longer collide with seed 0
    assert not np.array_equal(
        CounterRng(2**63 + 1000).block(2).random(8), CounterRng(2**63).block(2).random(8)
    )
    assert not np.array_equal(
        CounterRng(3, 2**63 + 1).block(2).random(8), CounterRng(3, 2**63).block(2).random(8)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = CounterRng(2**64 - 1).block(2).random(8)
    assert not np.array_equal(top, CounterRng(0).block(2).random(8))


@pytest.mark.parametrize("seed", [0, 1, 37, 2**62])
def test_keys_below_2_63_unchanged(seed):
    # the key numpy builds from the plain list, for every seed the schema took before
    old = np.random.Generator(np.random.Philox(key=[seed, 5], counter=(2 << 192) | (3 << 64)))
    assert np.array_equal(CounterRng(seed, 5).block(2, 3).random(16), old.random(16))
