"""Noise channels on the alphabet group: additive noise with its kappa
constant and mixture decomposition, the permutation-noise extension, and the
induced PCA local kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .lattice import Alphabet
from .rules import LocalRule, TorusConfiguration

__all__ = [
    "NoiseModel",
    "additive_noise",
    "permutation_noise",
    "kappa",
    "decompose",
    "channel_matrix",
    "convolve_sites",
    "local_kernel",
    "add_noise_index",
    "apply_noise",
    "noise_to_json",
    "noise_from_json",
]

MIN_PROB = 1e-9
SUM_TOL = 1e-12
# Largest joint state count of a run of sites that convolve_sites noises in
# one matmul.
GROUP_STATES = 64


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Strictly positive noise on the alphabet: x -> perm_table[Z, x] with
    Z ~ q, where perm_table is read-only and in the alphabet's state dtype.

    kind "additive": q is the law of the added symbol Z, and row z of
    perm_table is the translation x -> x + z.
    kind "permutation": perms (the rows of perm_table) is a stack of
    permutations of Sigma and q the law over them; the induced channel matrix
    must be doubly stochastic with all entries positive.  The permutation kind
    is an extension; bound validation in this lab is additive-only.
    thresholds is the read-only cumsum(q)[:-1] that add_noise_index compares
    uniforms with.
    """

    alphabet: Alphabet
    kind: str
    q: np.ndarray
    perms: np.ndarray | None = None

    def __init__(self, alphabet, kind, q, perms=None):
        q = np.asarray(q, dtype=np.float64)
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
        object.__setattr__(self, "thresholds", np.cumsum(q)[:-1])
        self.perm_table.setflags(write=False)
        self.thresholds.setflags(write=False)
        if kind == "permutation":
            ch = channel_matrix(self)
            if ch.min() <= 0:
                raise ValueError("permutation channel must have all entries positive")

    @property
    def kappa(self) -> float:
        return kappa(self)


def additive_noise(alphabet: Alphabet, q) -> NoiseModel:
    return NoiseModel(alphabet, "additive", q)


def permutation_noise(alphabet: Alphabet, perms, probs) -> NoiseModel:
    return NoiseModel(alphabet, "permutation", probs, perms=perms)


def kappa(noise: NoiseModel) -> float:
    """Uniform-mixture weight |Sigma| * min q (channel-matrix min for the
    permutation kind)."""
    if noise.kind == "additive":
        return noise.alphabet.size * float(noise.q.min())
    return noise.alphabet.size * float(channel_matrix(noise).min())


def decompose(noise: NoiseModel):
    """Split q = kappa * uniform + (1 - kappa) * q_tilde.

    Uniform q (kappa = 1) returns q_tilde = uniform by convention.
    """
    if noise.kind != "additive":
        raise ValueError("decompose applies to additive noise")
    size = noise.alphabet.size
    k = kappa(noise)
    if k >= 1.0:
        return 1.0, np.full(size, 1.0 / size)
    q_tilde = (noise.q - k / size) / (1.0 - k)
    q_tilde = np.clip(q_tilde, 0.0, None)
    return k, q_tilde


def channel_matrix(noise: NoiseModel) -> np.ndarray:
    """Single-cell transition matrix C[a, b] = Pr(output=b | input=a)."""
    size = noise.alphabet.size
    ch = np.zeros((size, size))
    for p, w in zip(noise.perm_table, noise.q):
        ch[np.arange(size), p] += w
    return ch


def convolve_sites(probs: np.ndarray, channel: np.ndarray, n_sites: int) -> np.ndarray:
    """Independent per-site noise on laws over Sigma^n_sites, held flat in the
    last axis of probs (leading axes are a batch): runs of consecutive sites,
    first site first, take the Kronecker power of the channel as one matmul on
    a (pre, Sigma^g, post) view, with g the largest run of at most
    GROUP_STATES joint states."""
    size = channel.shape[0]
    group = 1
    while size ** (group + 1) <= GROUP_STATES:
        group += 1
    out = probs.reshape(-1, size ** n_sites)
    rows = out.shape[0]
    for lo in range(0, n_sites, group):
        g = min(group, n_sites - lo)
        block = reduce(np.kron, [channel] * g)
        view = out.reshape(rows * size ** lo, size ** g, size ** (n_sites - lo - g))
        out = view[..., 0] @ block if lo + g == n_sites else np.matmul(block.T, view)
    return out.reshape(probs.shape)


def local_kernel(rule: LocalRule, noise: NoiseModel) -> np.ndarray:
    """PCA local kernel phi(u, b) = q(b - f(u)), one row per neighbourhood
    pattern."""
    if rule.alphabet.factors != noise.alphabet.factors:
        raise ValueError("rule and noise alphabets differ")
    return channel_matrix(noise)[rule.table]


def add_noise_index(noise: NoiseModel, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add to out the row of perm_table that each uniform u selects by
    inverse CDF: sum_k [u >= cum_k] over cum[:-1] (noise.thresholds) equals
    searchsorted(cum, u, side="right") as u < cum[-1] = 1.

    This makes |q| - 1 passes over the block, so it pays off only for small
    alphabets: on a 1024 x 33 block it beats searchsorted up to |q| = 64 and
    is level with it at |q| = 256."""
    for c in noise.thresholds:
        out += u >= c
    return out


def sample_noise_symbols(noise: NoiseModel, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw iid rows Z ~ q of perm_table."""
    u = rng.random(shape)
    z = np.zeros(u.shape, dtype=np.min_scalar_type(noise.perm_table.size - 1))
    return add_noise_index(noise, u, z)


def apply_noise(x, noise: NoiseModel, rng: np.random.Generator):
    """Perturb every cell independently; deterministic given the generator.

    Accepts a TorusConfiguration or a raw symbol array and returns the same
    shape, as int64 symbol codes.
    """
    if isinstance(x, TorusConfiguration):
        return TorusConfiguration(x.sides, apply_noise(x.data, noise, rng))
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= noise.alphabet.size):
        raise ValueError("symbols outside the alphabet")
    return noise.perm_table[sample_noise_symbols(noise, x.shape, rng), x].astype(np.int64)


def noise_to_json(noise: NoiseModel) -> dict:
    # Probabilities as decimal strings so configs round-trip without
    # binary-float drift.
    doc = {
        "kind": noise.kind,
        "alphabet": list(noise.alphabet.factors),
        "q": [repr(float(v)) for v in noise.q],
    }
    if noise.kind == "permutation":
        doc["perms"] = noise.perms.tolist()
    return doc


def noise_from_json(doc: dict) -> NoiseModel:
    alphabet = Alphabet(tuple(doc["alphabet"]))
    q = [float(v) for v in doc["q"]]
    if doc["kind"] == "additive":
        return additive_noise(alphabet, q)
    return permutation_noise(alphabet, doc["perms"], q)
