"""Exact and estimated information functionals on window distributions:
entropy, deficiency, total variation, KL divergence, the Pinsker bound, and
plug-in / Miller-Madow sample estimators.

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Alphabet, CellSet, marginalize_patterns

__all__ = [
    "STATE_CAP",
    "CapExceededError",
    "WindowDistribution",
    "entropy",
    "entropy_vec",
    "entropy_rows",
    "deficiency",
    "tv_distance",
    "tv_vec",
    "tv_to_uniform",
    "kl_divergence",
    "pinsker_bound",
    "estimate_entropy",
    "mixing_time",
]

# Largest dense probability vector an exact engine will build (2**24 doubles);
# operations reject bigger requests rather than silently approximating.
STATE_CAP = 2 ** 24

SUM_TOL = 1e-10


class CapExceededError(Exception):
    """A request would exceed the configured exact state-space cap."""


def check_cap(n_states: int, cap: int | None = None):
    cap = STATE_CAP if cap is None else cap
    if n_states > cap:
        raise CapExceededError(f"state space of size {n_states} exceeds cap {cap}")


@dataclass(frozen=True, eq=False)
class WindowDistribution:
    """Exact probability vector over patterns Sigma^A for a finite window A,
    indexed by the mixed-radix pattern encoding (cells in canonical order,
    first cell most significant)."""

    window: CellSet
    alphabet: Alphabet
    probs: np.ndarray

    def __init__(self, window, alphabet, probs, cap: int | None = None):
        n_states = alphabet.size ** len(window)
        check_cap(n_states, cap)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (n_states,):
            raise ValueError(f"probability vector must have {n_states} entries")
        if probs.min() < -SUM_TOL:
            raise ValueError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-10")
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
    def uniform(cls, window, alphabet, cap=None):
        n = alphabet.size ** len(window)
        check_cap(n, cap)
        return cls(window, alphabet, np.full(n, 1.0 / n), cap=cap)

    @classmethod
    def point_mass(cls, window, alphabet, pattern_code: int, cap=None):
        n = alphabet.size ** len(window)
        check_cap(n, cap)
        probs = np.zeros(n)
        probs[int(pattern_code)] = 1.0
        return cls(window, alphabet, probs, cap=cap)

    @classmethod
    def product_of_cells(cls, window, alphabet, cell_laws, cap=None):
        """Independent per-cell laws assembled into a joint distribution
        (cell_laws in the window's canonical cell order)."""
        cell_laws = [np.asarray(p, dtype=np.float64) for p in cell_laws]
        if len(cell_laws) != len(window):
            raise ValueError("one per-cell law per window cell required")
        check_cap(alphabet.size ** len(window), cap)
        probs = np.ones(1)
        for p in cell_laws:
            probs = np.multiply.outer(probs, p).reshape(-1)
        return cls(window, alphabet, probs, cap=cap)

    def marginal(self, sub_window: CellSet) -> "WindowDistribution":
        """Exact marginal on a subset of the window's cells."""
        probs = marginalize_patterns(self.probs, self.window, sub_window, self.alphabet.size)
        return WindowDistribution(sub_window, self.alphabet, probs)


def _as_probs(p) -> np.ndarray:
    if isinstance(p, WindowDistribution):
        return p.probs
    return np.asarray(p, dtype=np.float64)


def entropy_vec(probs: np.ndarray) -> float:
    """Shannon entropy of a probability vector in nats, 0*log0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum()) + 0.0


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row (last axis) of a stack of
    probability vectors, with entropy_vec's conventions: 0*log0 = 0 and no
    negative zero."""
    p = np.asarray(probs, dtype=np.float64)
    logs = np.log(p, where=p > 0, out=np.zeros_like(p))
    return -np.einsum("...i,...i->...", p, logs) + 0.0


def entropy(p: WindowDistribution) -> float:
    return entropy_vec(_as_probs(p))


def deficiency(p: WindowDistribution) -> float:
    """Missing entropy |A| h_max - H(p); zero iff p is uniform."""
    return p.max_entropy - entropy(p)


def tv_vec(p, q) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return 0.5 * float(np.abs(p - q).sum())


def tv_distance(p: WindowDistribution, q: WindowDistribution) -> float:
    """Total variation distance (half L1) between two laws on one window."""
    if p.window != q.window or p.alphabet.factors != q.alphabet.factors:
        raise ValueError("distributions live on different windows")
    return tv_vec(p.probs, q.probs)


def tv_to_uniform(p: WindowDistribution) -> float:
    return tv_vec(p.probs, np.full(p.probs.shape, 1.0 / p.probs.size))


def kl_divergence(p, q) -> float:
    """KL divergence D(p || q) in nats (independent of the deficiency path;
    used to cross-check deficiency(p) == KL(p || uniform))."""
    p = _as_probs(p)
    q = _as_probs(q)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def pinsker_bound(p: WindowDistribution) -> float:
    """Upper bound sqrt(deficiency/2) on the TV distance to uniform."""
    return math.sqrt(max(deficiency(p), 0.0) / 2.0)


def mixing_time(curve, epsilon: float) -> tuple[int, bool]:
    """First passage of a distance curve d(0..T) below epsilon: (t_mix,
    True) with t_mix the smallest t where d(t) <= epsilon, or (T + 1, False),
    a lower bound, when the curve never gets there (Levin, Peres & Wilmer,
    Markov Chains and Mixing Times, 2nd ed., 2017, sec. 4.5)."""
    hit = np.flatnonzero(np.asarray(curve) <= epsilon)
    return (int(hit[0]), True) if hit.size else (len(curve), False)


def estimate_entropy(samples, method: str = "plugin") -> float:
    """Entropy estimate from observed pattern codes.

    "plugin" is the empirical-distribution entropy; "miller-madow" adds the
    (K_hat - 1) / (2N) bias correction with K_hat the number of observed
    patterns.
    """
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    _, counts = np.unique(samples, return_counts=True)
    n = samples.size
    freq = counts / n
    h = entropy_vec(freq)
    if method == "plugin":
        return h
    if method == "miller-madow":
        return h + (len(counts) - 1) / (2.0 * n)
    raise ValueError(f"unknown estimator {method!r}")
