"""Exact and estimated information functionals on window distributions:
entropy, deficiency, total variation, the Pinsker bound, and plug-in /
Miller-Madow estimators from pattern counts.

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Alphabet, CellSet, marginalize_patterns

__all__ = [
    "MEMORY_CAP",
    "CapExceededError",
    "check_bytes",
    "WindowDistribution",
    "entropy",
    "entropy_vec",
    "entropy_rows",
    "deficiency",
    "tv_vec",
    "tv_to_uniform",
    "pinsker_bound",
    "estimate_entropy",
    "mixing_time",
]

# Most bytes an engine may hold at its peak (512 MiB), counted and checked before it allocates
MEMORY_CAP = 2 ** 29

SUM_TOL = 1e-10


class CapExceededError(Exception):
    """A request would hold more bytes than MEMORY_CAP."""


def check_bytes(n_bytes: int, what: str) -> int:
    """Refuse n_bytes for `what` over MEMORY_CAP (read per call); return the bytes left."""
    if n_bytes > MEMORY_CAP:
        raise CapExceededError(f"{what} needs {n_bytes} bytes, over the budget of {MEMORY_CAP} bytes")
    return MEMORY_CAP - n_bytes


@dataclass(frozen=True, eq=False)
class WindowDistribution:
    """Exact probability vector over patterns Sigma^A for a finite window A,
    indexed by the mixed-radix pattern encoding (cells in canonical order,
    first cell most significant)."""

    window: CellSet
    alphabet: Alphabet
    probs: np.ndarray

    def __init__(self, window, alphabet, probs):
        n_states = alphabet.size ** len(window)
        check_bytes(8 * n_states, "a window law")
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (n_states,):
            raise ValueError(f"probability vector must have {n_states} entries")
        lowest = probs.min()
        if lowest < -SUM_TOL:
            raise ValueError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-10")
        if lowest < 0:  # an admitted rounding error is stored as 0
            probs = np.maximum(probs, 0.0)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)

    @property
    def n_cells(self) -> int:
        return len(self.window)

    @property
    def max_entropy(self) -> float:
        return self.n_cells * self.alphabet.h_max

    @classmethod
    def uniform(cls, window, alphabet):
        n = alphabet.size ** len(window)
        check_bytes(8 * n, "a window law")
        return cls(window, alphabet, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, window, alphabet, pattern_code: int):
        n = alphabet.size ** len(window)
        check_bytes(8 * n, "a window law")
        probs = np.zeros(n)
        probs[int(pattern_code)] = 1.0
        return cls(window, alphabet, probs)

    @classmethod
    def product_of_cells(cls, window, alphabet, cell_laws):
        """Independent per-cell laws assembled into a joint distribution
        (cell_laws in the window's canonical cell order)."""
        cell_laws = [np.asarray(p, dtype=np.float64) for p in cell_laws]
        if len(cell_laws) != len(window):
            raise ValueError("one per-cell law per window cell required")
        check_bytes(8 * alphabet.size ** len(window), "a window law")
        probs = np.ones(1)
        for p in cell_laws:
            probs = np.multiply.outer(probs, p).reshape(-1)
        return cls(window, alphabet, probs)

    def marginal(self, sub_window: CellSet) -> "WindowDistribution":
        """Exact marginal on a subset of the window's cells."""
        probs = marginalize_patterns(self.probs, self.window, sub_window, self.alphabet.size)
        return WindowDistribution(sub_window, self.alphabet, probs)


def entropy_vec(probs: np.ndarray) -> float:
    """Shannon entropy of a non-negative probability vector in nats."""
    return float(entropy_rows(probs))


def entropy_rows(probs: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Shannon entropy in nats of each law in a state-major stack of
    non-negative laws: states on the first axis, one value per entry of the
    trailing batch axes (one value for a lone law).  0*log0 = 0, as a
    zero meets log(tiny), which is finite, and no value is a negative zero.
    work, a float64 array of probs' shape, takes the logs, so that a caller
    in a loop allocates it once."""
    p = np.asarray(probs, dtype=np.float64)
    logs = np.empty_like(p) if work is None else work
    np.log(np.maximum(p, np.finfo(np.float64).tiny, out=logs), out=logs)
    if p.ndim == 1:
        return -(logs @ p) + 0.0
    return -np.einsum("i...,i...->...", p, logs) + 0.0


def entropy(p: WindowDistribution) -> float:
    return entropy_vec(p.probs)


def deficiency(p: WindowDistribution) -> float:
    """Missing entropy |A| h_max - H(p); zero iff p is uniform."""
    return p.max_entropy - entropy(p)


def tv_vec(p, q) -> float:
    """Total variation distance (half L1) between two probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return 0.5 * float(np.abs(p - q).sum())


def tv_to_uniform(p: WindowDistribution) -> float:
    return tv_vec(p.probs, 1.0 / p.probs.size)


def pinsker_bound(p: WindowDistribution) -> float:
    """Upper bound sqrt(deficiency/2) on the TV distance to uniform."""
    return math.sqrt(max(deficiency(p), 0.0) / 2.0)


def mixing_time(curve, epsilon: float) -> tuple[int, bool]:
    """First passage of a distance curve d(0..T) below epsilon: (t_mix,
    True) with t_mix the smallest t where d(t) <= epsilon, or (T + 1, False),
    a lower bound, when the curve never gets there (Levin, Peres & Wilmer,
    Markov Chains and Mixing Times, 2nd ed., 2017, sec. 4.5).  epsilon must
    lie in (0, 1)."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    hit = np.flatnonzero(np.asarray(curve) <= epsilon)
    return (int(hit[0]), True) if hit.size else (len(curve), False)


def estimate_entropy(counts, method: str = "plugin") -> float:
    """Entropy estimate from the observed count of each pattern (patterns
    never seen may be listed with count 0).

    "plugin" is the empirical-distribution entropy; "miller-madow" adds the
    (K_hat - 1) / (2N) bias correction with N the number of samples and
    K_hat the number of observed patterns.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("pattern counts must be non-negative")
    n = int(counts.sum())
    if n == 0:
        raise ValueError("need at least one sample")
    h = entropy_vec(counts / n)
    if method == "plugin":
        return h
    if method == "miller-madow":
        return h + (int(np.count_nonzero(counts)) - 1) / (2.0 * n)
    raise ValueError(f"unknown estimator {method!r}")
