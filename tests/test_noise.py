import hashlib

import numpy as np
import pytest

from rcalab import noise
from rcalab.lattice import Alphabet
from rcalab.noise import (
    MIN_PROB,
    NoiseModel,
    additive_noise,
    apply_noise,
    channel_matrix,
    convolve_sites,
    kappa,
    local_kernel,
    noise_from_json,
    permutation_noise,
    sample_noise_symbols,
)
from rcalab.rules import build_elementary

Z2 = Alphabet((2,))
Z3 = Alphabet((3,))


def test_kappa_examples():
    assert kappa(additive_noise(Z2, [0.9, 0.1])) == pytest.approx(0.2)
    assert kappa(additive_noise(Z3, [1 / 3] * 3)) == pytest.approx(1.0)
    assert kappa(additive_noise(Z3, [0.5, 0.25, 0.25])) == pytest.approx(0.75)


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 2)])
def test_kappa_additive_is_size_times_min_q(factors):
    # each channel entry of additive noise is one q value added to 0.0
    alphabet = Alphabet(factors)
    rng = np.random.default_rng(len(factors) * 10 + alphabet.size)
    for _ in range(50):
        q = rng.dirichlet(np.ones(alphabet.size)) + 1e-3
        noise = additive_noise(alphabet, q / q.sum())
        assert kappa(noise) == alphabet.size * float(noise.q.min())


def test_validation():
    with pytest.raises(ValueError):
        additive_noise(Z2, [1.0, 0.0])  # zero entry
    with pytest.raises(ValueError):
        additive_noise(Z2, [0.8, 0.1])  # does not sum to 1
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            additive_noise(Z2, [bad, 0.1])


def test_local_kernel_examples():
    q = additive_noise(Z2, [0.9, 0.1])
    r90 = build_elementary(90)
    phi = local_kernel(r90, q)
    assert phi.shape == (8, 2)
    assert np.allclose(phi.sum(axis=1), 1.0)
    for u in range(8):
        f = r90.table[u]
        assert phi[u, f] == pytest.approx(0.9)
        assert phi[u, 1 - f] == pytest.approx(0.1)

    # rows are permutations of q
    q3 = additive_noise(Z3, [0.5, 0.25, 0.25])
    from rcalab.rules import build_linear

    lin = build_linear(Z3, {0: 1, 1: 1})
    phi3 = local_kernel(lin, q3)
    for u in range(9):
        f = lin.table[u]
        assert phi3[u, (f + 1) % 3] == pytest.approx(0.25)
        assert sorted(phi3[u]) == sorted(q3.q)


def test_channel_preserves_uniform():
    for noise in (
        additive_noise(Z3, [0.6, 0.3, 0.1]),
        additive_noise(Alphabet((2, 2)), [0.4, 0.3, 0.2, 0.1]),
    ):
        ch = channel_matrix(noise)
        u = np.full(noise.alphabet.size, 1.0 / noise.alphabet.size)
        assert np.allclose(u @ ch, u)


def test_permutation_noise_channel():
    perms = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    noise = permutation_noise(Z3, perms, [0.8, 0.1, 0.1])
    ch = channel_matrix(noise)
    assert np.allclose(ch.sum(axis=0), 1.0)  # doubly stochastic
    assert np.allclose(ch.sum(axis=1), 1.0)
    assert ch.min() > 0
    assert kappa(noise) == pytest.approx(3 * 0.1)

    # a permutation with probability concentrated enough to zero an entry
    with pytest.raises(ValueError):
        permutation_noise(Z3, [[0, 1, 2], [1, 2, 0]], [0.9, 0.1])


def test_apply_noise_determinism():
    noise = additive_noise(Z2, [0.9, 0.1])
    x = np.zeros(1000, dtype=np.int64)
    a = apply_noise(x, noise, np.random.Generator(np.random.Philox(key=5)))
    b = apply_noise(x, noise, np.random.Generator(np.random.Philox(key=5)))
    assert np.array_equal(a, b)
    c = apply_noise(x, noise, np.random.Generator(np.random.Philox(key=6)))
    assert not np.array_equal(a, c)  # overwhelmingly likely


def test_apply_noise_frequency():
    # constant-0 input: outputs are iid with law q; check one million cells
    noise = additive_noise(Z2, [0.9, 0.1])
    rng = np.random.Generator(np.random.Philox(key=1234))
    out = apply_noise(np.zeros(1_000_000, dtype=np.int64), noise, rng)
    freq = (out == 0).mean()
    sigma = np.sqrt(0.9 * 0.1 / 1_000_000)
    assert abs(freq - 0.9) <= 3 * sigma


def test_apply_noise_group_translation():
    # noise on symbol a yields law q shifted by a
    noise = additive_noise(Z3, [0.7, 0.2, 0.1])
    rng = np.random.Generator(np.random.Philox(key=77))
    out = apply_noise(np.full(300_000, 2, dtype=np.int64), noise, rng)
    freqs = np.bincount(out, minlength=3) / out.size
    # symbol 2 + Z: out 0 <- z=1, out 1 <- z=2, out 2 <- z=0
    expect = np.array([0.2, 0.1, 0.7])
    assert np.abs(freqs - expect).max() < 3 * np.sqrt(0.25 / 300_000)


def test_permutation_apply():
    perms = [[0, 1], [1, 0]]
    noise = permutation_noise(Z2, perms, [0.9, 0.1])
    rng = np.random.Generator(np.random.Philox(key=3))
    out = apply_noise(np.zeros(200_000, dtype=np.int64), noise, rng)
    assert abs((out == 1).mean() - 0.1) < 3 * np.sqrt(0.09 / 200_000)
    # a flat table lookup would read a neighbouring row for symbol 2
    with pytest.raises(ValueError):
        apply_noise(np.array([0, 2, 1]), noise, rng)


def test_noise_from_json():
    # q as decimal strings, the form configs use, or as numbers
    for q in (["0.5", "0.25", "0.25"], [0.5, 0.25, 0.25]):
        back = noise_from_json({"kind": "additive", "alphabet": [3], "q": q})
        noise = additive_noise(Z3, [0.5, 0.25, 0.25])
        assert (back.kind, back.alphabet.factors, back.perms) == ("additive", (3,), None)
        assert np.array_equal(back.q, noise.q)
        assert np.array_equal(back.perm_table, noise.perm_table)

    doc = {"kind": "permutation", "alphabet": [2], "perms": [[0, 1], [1, 0]], "q": ["0.85", "0.15"]}
    back = noise_from_json(doc)
    pn = permutation_noise(Z2, [[0, 1], [1, 0]], [0.85, 0.15])
    assert (back.kind, back.alphabet.factors) == ("permutation", (2,))
    assert np.array_equal(back.q, pn.q) and np.array_equal(back.perms, pn.perms)
    assert np.array_equal(channel_matrix(back), channel_matrix(pn))


class _FixedWords:
    """Stand-in generator whose integers() returns prescribed 64-bit words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        return self.words.reshape(size)


@pytest.mark.parametrize(
    "q",
    [
        [0.9, 0.1],
        [0.7, 0.2, 0.1],
        [MIN_PROB, 0.5 - MIN_PROB, 0.5],
        [1.0 - 3 * MIN_PROB, MIN_PROB, MIN_PROB, MIN_PROB],
        [0.25, MIN_PROB, 0.25 - MIN_PROB, 0.5],
    ],
)
def test_noise_index_matches_searchsorted(q):
    # the comparison-sum inverse CDF on words gives searchsorted(side="right")'s
    # integers on the words' uniforms (w >> 11) * 2^-53, also for a uniform on
    # a cumulative value, either side of it, 0 and just below 1
    noise = additive_noise(Alphabet((len(q),)), q)
    cum = np.cumsum(noise.q)
    cum[-1] = 1.0
    # the last uniform at or below each cumulative value (the value itself
    # when it lies on the 2^-53 grid, as every one >= 0.5 does), the first
    # at or above it, and the uniforms either side of that one
    below = np.floor(np.ldexp(cum[:-1], 53)).astype(np.uint64) << np.uint64(11)
    edges = np.concatenate(
        [below, noise.thresholds, noise.thresholds - np.uint64(1), noise.thresholds + np.uint64(2048)]
    )
    rng = np.random.default_rng(len(q))
    words = np.concatenate(
        [np.array([0, 2**64 - 1], dtype=np.uint64), edges, rng.integers(0, 2**64, 4000, dtype=np.uint64)]
    )
    u = (words >> np.uint64(11)) * 2.0**-53
    assert u.max() == np.nextafter(1.0, 0)
    assert np.isin(cum[:-1][cum[:-1] >= 0.5], u).all()
    got = sample_noise_symbols(noise, words.shape, _FixedWords(words))
    assert np.array_equal(got, np.searchsorted(cum, u, side="right"))


# Digests of apply_noise outputs (little-endian int64) from the searchsorted
# and Alphabet.add implementation the table sampler replaced.
APPLY_NOISE_DIGESTS = {
    "additive-z3": "c3bc413a3bdcdb9830047f57fffb193b493ea0f108f3d15bb2cc56fd3421e20f",
    "additive-z2xz2": "5e5b9a55ac9ce915d46e522962c809765d09047a76fb9c31ccde82d7091ab8e6",
    "perm-z3": "5ede8f97aba866fc578a7463f2f9b06d1bbf6664e56f0e7a76f9d6f12ab460c1",
}


@pytest.mark.parametrize("name", sorted(APPLY_NOISE_DIGESTS))
def test_apply_noise_pinned(name):
    x = np.arange(3000) % 3
    noise, data = {
        "additive-z3": (additive_noise(Z3, [0.7, 0.2, 0.1]), x),
        "additive-z2xz2": (
            additive_noise(Alphabet((2, 2)), [0.4, 0.3, 0.2, 0.1]), (np.arange(3000) * 7) % 4
        ),
        "perm-z3": (permutation_noise(
            Z3, [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 0, 2]], [0.7, 0.1, 0.1, 0.1]), x),
    }[name]
    rng = np.random.Generator(np.random.Philox(key=99))
    out = apply_noise(data.reshape(30, 100), noise, rng)
    assert out.dtype == np.int64 and out.shape == (30, 100)
    digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<i8").tobytes()).hexdigest()
    assert digest == APPLY_NOISE_DIGESTS[name]


def test_perm_table_rows():
    # additive noise is permutation noise whose row z translates by z
    z22 = Alphabet((2, 2))
    table = additive_noise(z22, [0.4, 0.3, 0.2, 0.1]).perm_table
    sym = z22.symbols()
    assert np.array_equal(table, z22.add(sym[:, None], sym[None, :]))
    perms = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 0, 2]]
    pn = permutation_noise(Z3, perms, [0.7, 0.1, 0.1, 0.1])
    assert np.array_equal(pn.perm_table, perms)
    assert pn.perm_table.dtype == np.uint8 and not pn.perm_table.flags.writeable


def _convolve_per_site(probs, channel, n_sites):
    # reference: one tensordot per site axis, first site first
    batch = probs.shape[1:]
    tensor = probs.reshape((channel.shape[0],) * n_sites + batch)
    for axis in range(n_sites):
        tensor = np.moveaxis(np.tensordot(tensor, channel, axes=([axis], [0])), -1, axis)
    return tensor.reshape(probs.shape)


@pytest.mark.parametrize(
    "size, n_sites",
    [(2, 0), (2, 1), (2, 5), (2, 6), (2, 7), (2, 13), (3, 0), (3, 1), (3, 4), (3, 5), (4, 1), (4, 4), (4, 5)],
)
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_convolve_sites_matches_per_site_loop(size, n_sites, batch):
    rng = np.random.default_rng(size * 100 + n_sites)
    channel = rng.dirichlet(np.ones(size), size=size)
    # state-major: the laws' states on the first axis, the batch trailing
    probs = np.moveaxis(rng.dirichlet(np.ones(size ** n_sites), size=batch or None), -1, 0)
    got = convolve_sites(probs, channel, n_sites)
    assert got.shape == probs.shape
    assert np.abs(got - _convolve_per_site(probs, channel, n_sites)).max() < 1e-12


@pytest.mark.parametrize("group_states", [1, 2, 3, 4, 8, 9, 16, 27, 64, 729])
@pytest.mark.parametrize("size, n_sites", [(2, 1), (2, 7), (2, 10), (3, 1), (3, 4), (3, 5)])
@pytest.mark.parametrize("batch", [(), (5,)])
def test_convolve_sites_every_group_size_with_and_without_out(monkeypatch, group_states, size, n_sites, batch):
    monkeypatch.setattr(noise, "GROUP_STATES", group_states)
    rng = np.random.default_rng(size * 1000 + n_sites)
    channel = rng.dirichlet(np.ones(size), size=size)
    probs = np.moveaxis(rng.dirichlet(np.ones(size ** n_sites), size=batch or None), -1, 0).copy()
    want = _convolve_per_site(probs, channel, n_sites)
    kept = probs.copy()
    fresh = convolve_sites(probs, channel, n_sites)
    assert np.abs(fresh - want).max() < 1e-12
    assert np.array_equal(probs, kept)  # without out, probs is left as it is
    # with out, the products alternate between out and probs, and the one
    # holding the result is returned
    src, out = probs.copy(), np.empty_like(probs)
    n_blocks = len(noise.site_blocks(channel, n_sites))
    got = convolve_sites(src, channel, n_sites, out=out)
    assert got is (out if n_blocks % 2 else src)
    assert np.abs(got - want).max() < 1e-12


def test_convolve_sites_refuses_non_contiguous_out():
    channel = np.array([[0.9, 0.1], [0.2, 0.8]])
    probs = np.full((8, 4), 1.0 / 8)
    with pytest.raises(ValueError, match="C-contiguous"):
        convolve_sites(probs, channel, 3, out=np.empty((4, 8)).T)


# refusals no other test reaches, (message pattern, call)
NOISE_REFUSALS = {
    "additive noise takes no permutations": lambda: NoiseModel(Z2, "additive", [0.5, 0.5], perms=[[0, 1], [1, 0]]),
    "one entry per symbol": lambda: NoiseModel(Z2, "additive", [0.25] * 4),
    "stack of symbol permutations": lambda: NoiseModel(Z3, "permutation", [0.5, 0.5], perms=[[0, 1], [1, 0]]),
    "one entry per permutation": lambda: NoiseModel(Z3, "permutation", [0.25] * 4, perms=[[0, 1, 2], [1, 2, 0]]),
    "permutation of Sigma": lambda: NoiseModel(Z3, "permutation", [0.5, 0.5], perms=[[0, 1, 2], [0, 0, 2]]),
    "unknown noise kind": lambda: NoiseModel(Z2, "multiplicative", [0.5, 0.5]),
    "rule and noise alphabets differ": lambda: local_kernel(build_elementary(90), additive_noise(Z3, [0.5, 0.25, 0.25])),
}


@pytest.mark.parametrize("message", sorted(NOISE_REFUSALS))
def test_noise_refusals(message):
    with pytest.raises(ValueError, match=message):
        NOISE_REFUSALS[message]()
