"""Noise channels on the alphabet group: additive noise with its kappa
constant, the permutation-noise extension, and the induced PCA local kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .lattice import Alphabet
from .rng import draw_words, word_threshold
from .rules import LocalRule

__all__ = [
    "NoiseModel",
    "additive_noise",
    "permutation_noise",
    "kappa",
    "channel_matrix",
    "site_blocks",
    "convolve_sites",
    "local_kernel",
    "add_noise_index",
    "apply_noise",
    "noise_from_json",
]

MIN_PROB = 1e-9
SUM_TOL = 1e-12
# Largest joint state count of a run of sites that convolve_sites noises in
# one matmul (one site_blocks block).  A block of g states costs 2g flops per
# state, so small blocks do less work, while each block is one more pass and
# one more matmul call.  9 gives three-bit (8-state) and two-trit (9-state)
# blocks, which ran the circuit chain faster than both 64-state and
# single-site blocks; small GEMMs also stay under OpenBLAS's threshold for
# using more than one thread.
GROUP_STATES = 9


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Strictly positive noise on the alphabet: x -> perm_table[Z, x] with
    Z ~ q, where perm_table is read-only and in the alphabet's state dtype.

    kind "additive": q is the law of the added symbol Z, and row z of
    perm_table is the translation x -> x + z.
    kind "permutation": perms (the rows of perm_table) is a stack of
    permutations of Sigma and q the law over them; the induced channel matrix
    must be doubly stochastic with all entries positive.  The permutation kind
    is an extension of the paper's theorem, which is stated for additive
    noise.  The bound checks accept it: a permutation channel C is doubly
    stochastic, so C = kappa U + (1-kappa) C' with U the uniform channel and C'
    doubly stochastic, and the noise lemma holds for it by concavity of
    entropy.
    thresholds is the read-only uint64 array word_threshold(cumsum(q)[:-1])
    that add_noise_index compares 64-bit words with: a word is >= its k-th
    entry exactly when the uniform Generator.random makes of it is >= the
    k-th cumulative probability.
    """

    alphabet: Alphabet
    kind: str
    q: np.ndarray
    perms: np.ndarray | None = None

    def __init__(self, alphabet, kind, q, perms=None):
        q = np.asarray(q, dtype=np.float64)
        # NaN would pass both comparisons below
        if not np.isfinite(q).all():
            raise ValueError("probabilities must be finite")
        if abs(float(q.sum()) - 1.0) > SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if q.min() < MIN_PROB:
            raise ValueError(f"probabilities must be >= {MIN_PROB} (strict positivity)")
        if kind == "additive":
            if perms is not None:
                raise ValueError("additive noise takes no permutations")
            if q.shape != (alphabet.size,):
                raise ValueError("q must have one entry per symbol")
        elif kind == "permutation":
            perms = np.asarray(perms, dtype=np.int64)
            if perms.ndim != 2 or perms.shape[1] != alphabet.size:
                raise ValueError("perms must be a stack of symbol permutations")
            if q.shape != (perms.shape[0],):
                raise ValueError("q must have one entry per permutation")
            ident = np.arange(alphabet.size)
            for p in perms:
                if not np.array_equal(np.sort(p), ident):
                    raise ValueError("each row of perms must be a permutation of Sigma")
        else:
            raise ValueError(f"unknown noise kind {kind!r}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "perms", perms)
        if kind == "additive":
            perms = alphabet.add(alphabet.symbols()[:, None], alphabet.symbols())
        object.__setattr__(self, "perm_table", perms.astype(alphabet.state_dtype))
        object.__setattr__(self, "thresholds", word_threshold(np.cumsum(q)[:-1]))
        self.perm_table.setflags(write=False)
        self.thresholds.setflags(write=False)
        if kind == "permutation":
            ch = channel_matrix(self)
            if ch.min() <= 0:
                raise ValueError("permutation channel must have all entries positive")


def additive_noise(alphabet: Alphabet, q) -> NoiseModel:
    return NoiseModel(alphabet, "additive", q)


def permutation_noise(alphabet: Alphabet, perms, probs) -> NoiseModel:
    return NoiseModel(alphabet, "permutation", probs, perms=perms)


def kappa(noise: NoiseModel) -> float:
    """Uniform-mixture weight |Sigma| * min C of the channel matrix C; for
    additive noise each entry of C is one q value, so this is |Sigma| * min q."""
    return noise.alphabet.size * float(channel_matrix(noise).min())


def channel_matrix(noise: NoiseModel) -> np.ndarray:
    """Single-cell transition matrix C[a, b] = Pr(output=b | input=a)."""
    size = noise.alphabet.size
    # flat index a * size + b of each (z, a); bincount adds in z order from 0.0
    idx = noise.perm_table + np.arange(0, size * size, size)
    return np.bincount(idx.ravel(), np.repeat(noise.q, size), size * size).reshape(size, size)


def site_blocks(channel: np.ndarray, n_sites: int) -> tuple[np.ndarray, ...]:
    """Kronecker powers of the channel that convolve_sites applies to
    Sigma^n_sites, one per run of consecutive sites, first site first: each
    run is the largest with at most GROUP_STATES joint states, except the
    first, which takes the remaining sites.  A short run first is one GEMM
    over all later sites rather than many tiny ones."""
    size = channel.shape[0]
    group = 1
    while size ** (group + 1) <= GROUP_STATES:
        group += 1
    full, rest = divmod(n_sites, group)
    runs = ([rest] if rest else []) + [group] * full
    return tuple(reduce(np.kron, [channel] * g) for g in runs)


def convolve_sites(
    probs: np.ndarray,
    channel: np.ndarray | tuple[np.ndarray, ...],
    n_sites: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Independent per-site noise on laws over Sigma^n_sites, held
    state-major: the first axis of probs is the flat state index and any
    trailing axes are a batch of laws.  Each block of site_blocks(channel,
    n_sites) is one matmul on a (pre, Sigma^g, post * batch) view, so the
    first run of sites is one GEMM over the whole batch; a lone law's last
    run is the row-vector product view[..., 0] @ block.

    channel is the single-site channel matrix or, for a caller that convolves
    many laws with one channel, its site_blocks(channel, n_sites) built once.

    Without out, probs is left as it is and the result is a new array.  out,
    a C-contiguous float64 array of probs' shape, makes the products
    alternate between out and probs, which must be C-contiguous too and is
    overwritten, so that a caller in a loop allocates nothing; the array
    returned, out after an odd number of blocks and probs after an even one,
    holds the result."""
    blocks = site_blocks(channel, n_sites) if isinstance(channel, np.ndarray) else channel
    if out is None:
        probs = np.array(probs, dtype=float, order="C")
        out = np.empty_like(probs)
    elif not (probs.flags.c_contiguous and out.flags.c_contiguous):
        # reshape would copy, and the products would land in the copy
        raise ValueError("convolve_sites with out needs C-contiguous probs and out")
    src, spare = probs, out
    pre = 1
    for block in blocks:
        view = src.reshape(pre, block.shape[0], -1)
        if view.shape[2] == 1:
            np.matmul(view[..., 0], block, out=spare.reshape(view.shape[:2]))
        else:
            np.matmul(block.T, view, out=spare.reshape(view.shape))
        src, spare = spare, src
        pre *= block.shape[0]
    return src


def local_kernel(rule: LocalRule, noise: NoiseModel) -> np.ndarray:
    """PCA local kernel phi(u, b) = q(b - f(u)), one row per neighbourhood
    pattern."""
    if rule.alphabet.factors != noise.alphabet.factors:
        raise ValueError("rule and noise alphabets differ")
    return channel_matrix(noise)[rule.table]


def add_noise_index(noise: NoiseModel, words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add to out the row of perm_table that each 64-bit word selects by
    inverse CDF: with u the word's uniform, sum_k [u >= cum_k] over
    cum[:-1], taken as sum_k [word >= noise.thresholds[k]], equals
    searchsorted(cum, u, side="right") as u < cum[-1] = 1.

    This makes |q| - 1 passes over the block, so it pays off only for small
    alphabets: on a 1024 x 33 block of uniforms it beat searchsorted up to
    |q| = 64 and was level with it at |q| = 256."""
    for k in noise.thresholds:
        # a bool is the byte 0 or 1: added as uint8 it needs no cast buffer
        out += (words >= k).view(np.uint8)
    return out


def sample_noise_symbols(noise: NoiseModel, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw iid rows Z ~ q of perm_table, one 64-bit word each."""
    words = draw_words(rng, shape)
    z = np.zeros(words.shape, dtype=np.min_scalar_type(noise.perm_table.size - 1))
    return add_noise_index(noise, words, z)


def apply_noise(x, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Perturb every cell of a symbol array independently, one 64-bit word
    per cell in C order; deterministic given the generator.  Returns int64
    symbol codes of x's shape.
    """
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= noise.alphabet.size):
        raise ValueError("symbols outside the alphabet")
    return noise.perm_table[sample_noise_symbols(noise, x.shape, rng), x].astype(np.int64)


def noise_from_json(doc: dict) -> NoiseModel:
    alphabet = Alphabet(tuple(doc["alphabet"]))
    q = [float(v) for v in doc["q"]]
    if doc["kind"] == "additive":
        return additive_noise(alphabet, q)
    return permutation_noise(alphabet, doc["perms"], q)
