"""Exact law of the noisy trajectory on a finite window by dependence-cone
enumeration, plus the boundary leakage constants and the entropy-evolution
bound checker.

Per step the distribution lives on a shrinking cone: the law on moore(A, r*s)
is pushed through one deterministic rule application onto moore(A, r*(s-1))
(marginalizing everything else eagerly) and then convolved with the per-cell
noise channel.  Peak state space is |Sigma|^|moore(A, r*t)| at the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import WindowDistribution, check_cap, entropy
from .lattice import CellSet, decode_patterns, moore, moore_boundary, pattern_strides
from .noise import NoiseModel, channel_matrix, convolve_sites, kappa
from .rules import LocalRule

__all__ = [
    "ConeProblem",
    "dependence_cone",
    "exact_window_marginal",
    "leakage_constants",
    "check_evolution_bound",
    "check_surjective_step_bound",
    "BoundCheck",
    "push_deterministic",
    "convolve_noise",
]

_CHUNK = 1 << 16

SLACK = 1e-9


def dependence_cone(A: CellSet, rule: LocalRule, t: int) -> CellSet:
    """Initial cells that can influence window A after t steps."""
    if t < 0:
        raise ValueError("horizon must be non-negative")
    return moore(A, rule.radius * int(t))


@dataclass(frozen=True, eq=False)
class ConeProblem:
    """Exact-evolution instance: window A observed at time t, with the initial
    condition given on the full dependence cone moore(A, r*t).

    `initial` may be an int pattern code on the cone, a per-cell symbol array
    in the cone's canonical cell order, or a WindowDistribution on the cone.
    """

    rule: LocalRule
    noise: NoiseModel
    window: CellSet
    horizon: int
    initial: object
    cap: int | None = None

    def __post_init__(self):
        if self.rule.alphabet.factors != self.noise.alphabet.factors:
            raise ValueError("rule and noise alphabets differ")
        if self.window.dim != self.rule.dim:
            raise ValueError("window dimension does not match the rule")
        if len(self.window) == 0:
            raise ValueError("window must be non-empty")
        cone = self.cone()
        check_cap(self.rule.alphabet.size ** len(cone), self.cap)

    def cone(self) -> CellSet:
        return dependence_cone(self.window, self.rule, self.horizon)

    def initial_distribution(self) -> WindowDistribution:
        cone = self.cone()
        alphabet = self.rule.alphabet
        if isinstance(self.initial, WindowDistribution):
            if self.initial.window != cone:
                raise ValueError("initial distribution must cover the dependence cone")
            return self.initial
        if isinstance(self.initial, (int, np.integer)):
            return WindowDistribution.point_mass(
                cone, alphabet, int(self.initial), cap=self.cap
            )
        symbols = np.asarray(self.initial, dtype=np.int64)
        if symbols.shape != (len(cone),):
            raise ValueError("point initial must give one symbol per cone cell")
        code = int(symbols @ pattern_strides(len(cone), alphabet.size))
        return WindowDistribution.point_mass(cone, alphabet, code, cap=self.cap)


def push_deterministic(
    dist: WindowDistribution, rule: LocalRule, target: CellSet
) -> WindowDistribution:
    """Exact pushforward of a window law through one deterministic rule
    application, marginalized onto `target` (requires target + N inside the
    source window)."""
    src = dist.window
    size = rule.alphabet.size
    n_src, n_tgt = len(src), len(target)
    pos = {c: i for i, c in enumerate(src.cells)}
    gather = np.empty((n_tgt, len(rule.neighborhood)), dtype=np.int64)
    for i, cell in enumerate(target.cells):
        for j, off in enumerate(rule.neighborhood):
            shifted = tuple(c + o for c, o in zip(cell, off))
            if shifted not in pos:
                raise ValueError("target neighbourhood leaves the source window")
            gather[i, j] = pos[shifted]
    nb_strides = pattern_strides(len(rule.neighborhood), size)
    out = np.zeros(size ** n_tgt)
    tgt_strides = pattern_strides(n_tgt, size)
    for start in range(0, dist.probs.size, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, dist.probs.size), dtype=np.int64)
        slots = decode_patterns(codes, n_src, size)
        images = rule.table[slots[:, gather] @ nb_strides]
        out_codes = images @ tgt_strides
        out += np.bincount(out_codes, weights=dist.probs[codes], minlength=out.size)
    return WindowDistribution(target, rule.alphabet, out)


def convolve_noise(dist: WindowDistribution, noise: NoiseModel) -> WindowDistribution:
    """Independent per-cell noise convolution of a window law."""
    probs = convolve_sites(dist.probs, channel_matrix(noise), dist.n_cells)
    return WindowDistribution(dist.window, dist.alphabet, probs)


def exact_window_marginal(problem: ConeProblem) -> WindowDistribution:
    """Exact law of X^t on the window, renormalized when float drift exceeds
    1e-12."""
    dist = problem.initial_distribution()
    rule, noise = problem.rule, problem.noise
    for s in range(problem.horizon, 0, -1):
        target = dependence_cone(problem.window, rule, s - 1)
        dist = convolve_noise(push_deterministic(dist, rule, target), noise)
        drift = abs(float(dist.probs.sum()) - 1.0)
        if drift > 1e-12:
            dist = WindowDistribution(dist.window, dist.alphabet, dist.probs / dist.probs.sum())
    return dist


def leakage_constants(J: CellSet, rule: LocalRule, noise: NoiseModel):
    """Boundary constants: c(J) = (|dM^2r(J)| + |dM^r(J)|) h_max and
    c_tilde(J) = ((1-kappa)/kappa) c(J)."""
    r = rule.radius
    h = rule.alphabet.h_max
    c = (len(moore_boundary(J, 2 * r)) + len(moore_boundary(J, r))) * h
    k = kappa(noise)
    return c, (1.0 - k) / k * c


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def check_evolution_bound(
    problem: ConeProblem, law: WindowDistribution, surjective: bool | None = None
) -> BoundCheck:
    """Entropy floor H(X^t_J) >= [1 - (1-kappa)^t] |J| h_max - c_tilde(J),
    with the left side the entropy of `law`, the exact window law
    exact_window_marginal(problem).

    The rule must be surjective for the bound to be claimed; pass
    surjective=True to skip the 1D decision procedure (required for d >= 2).
    """
    if surjective is None:
        if problem.rule.dim != 1:
            raise ValueError("declare surjectivity explicitly for d >= 2 rules")
        from .analysis import test_surjective

        surjective = test_surjective(problem.rule)
    if not surjective:
        raise ValueError("evolution bound applies to surjective rules only")
    if law.window != problem.window:
        raise ValueError("law must live on the problem's window")
    lhs = entropy(law)
    k = kappa(problem.noise)
    _, c_tilde = leakage_constants(problem.window, problem.rule, problem.noise)
    h = problem.rule.alphabet.h_max
    rhs = (1.0 - (1.0 - k) ** problem.horizon) * len(problem.window) * h - c_tilde
    return BoundCheck(lhs, rhs, lhs >= rhs - SLACK)


def check_surjective_step_bound(
    rule: LocalRule, J: CellSet, initial: WindowDistribution
) -> BoundCheck:
    """One deterministic step of a surjective CA loses at most c(J) nats:
    H((FX)_J) >= H(X_J) - c(J).

    The initial law must cover moore(J, 2r); on that cone the pattern on J is
    a function of the boundary ring and the image on moore(J, r), so the
    infinite-lattice constant applies verbatim.
    """
    r = rule.radius
    cone = moore(J, 2 * r)
    if initial.window != cone:
        raise ValueError("initial law must live on moore(J, 2r)")
    h_before = entropy(initial.marginal(J))
    image = push_deterministic(initial, rule, J)
    h_after = entropy(image)
    c = (len(moore_boundary(J, 2 * r)) + len(moore_boundary(J, r))) * rule.alphabet.h_max
    rhs = h_before - c
    return BoundCheck(h_after, rhs, h_after >= rhs - SLACK)
