"""Exact law of the noisy trajectory on a finite window by a kernel sweep
over the dependence cone, plus the boundary leakage constants and the
entropy-evolution bound checker.

Per step the distribution lives on a shrinking cone: the law on moore(A, r*s)
is contracted, one target cell at a time, against the PCA local kernel
phi(u, b) = q(b - f(u)) onto moore(A, r*(s-1)), so the rule and the noise are
one einsum per target cell and every source cell is summed out after its
last use.  The same sweep serves every dimension.  A point-mass start skips
the largest cone: its first step is a product of kernel rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import SLACK, BoundReport
from .entropy import WindowDistribution, check_cap, entropy
from .lattice import CellSet, decode_patterns, moore, moore_boundary, pattern_strides
from .noise import NoiseModel, channel_matrix, convolve_sites, kappa, local_kernel
from .rules import LocalRule

__all__ = [
    "ConeProblem",
    "dependence_cone",
    "exact_window_marginal",
    "leakage_constants",
    "check_evolution_bound",
    "check_surjective_step_bound",
    "push_deterministic",
    "convolve_noise",
]


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

    def initial_symbols(self) -> np.ndarray | None:
        """Per-cell symbols of a point-mass initial, in the cone's canonical
        cell order; None when the initial is a WindowDistribution."""
        cone, size = self.cone(), self.rule.alphabet.size
        if isinstance(self.initial, WindowDistribution):
            if self.initial.window != cone:
                raise ValueError("initial distribution must cover the dependence cone")
            return None
        if isinstance(self.initial, (int, np.integer)):
            if not 0 <= self.initial < size ** len(cone):
                raise ValueError("initial pattern code out of range")
            return decode_patterns(int(self.initial), len(cone), size)
        symbols = np.asarray(self.initial, dtype=np.int64)
        if symbols.shape != (len(cone),):
            raise ValueError("point initial must give one symbol per cone cell")
        if symbols.min() < 0 or symbols.max() >= size:
            raise ValueError("initial symbols outside the alphabet")
        return symbols

    def initial_distribution(self) -> WindowDistribution:
        symbols = self.initial_symbols()
        if symbols is None:
            return self.initial
        code = int(symbols @ pattern_strides(len(symbols), self.rule.alphabet.size))
        return WindowDistribution.point_mass(self.cone(), self.rule.alphabet, code, cap=self.cap)


def _neighbour_slots(source: CellSet, rule: LocalRule, target: CellSet) -> np.ndarray:
    """Source-cell index of each target cell's neighbours, (|target|, |N|)."""
    pos = {c: i for i, c in enumerate(source.cells)}
    cells = [tuple(c + o for c, o in zip(cell, off)) for cell in target.cells for off in rule.neighborhood]
    if not all(c in pos for c in cells):
        raise ValueError("target neighbourhood leaves the source window")
    return np.array([pos[c] for c in cells], dtype=np.int64).reshape(len(target), -1)


def _sweep(dist: WindowDistribution, rule: LocalRule, target: CellSet, kernel) -> WindowDistribution:
    """Law on `target` of one application of the local kernel (one row per
    neighbourhood code, one column per output symbol) to the law on the
    source window, which must hold target + N.

    The cone tensor is contracted one target cell at a time in canonical
    order: each einsum appends the target's output axis and sums out every
    source axis whose last user is that target; source axes no target uses
    go with the first target.  Source axis a has einsum label a, and freed
    labels are recycled for output axes, as labels must be < 52."""
    size = rule.alphabet.size
    uses = _neighbour_slots(dist.window, rule, target).tolist()
    last = dict.fromkeys(range(dist.n_cells), 0)
    last.update((a, j) for j, axes in enumerate(uses) for a in axes)
    tensor = dist.probs.reshape((size,) * dist.n_cells)
    current, free = list(range(dist.n_cells)), list(range(51, dist.n_cells - 1, -1))
    kernel = kernel.reshape((size,) * (len(rule.neighborhood) + 1))
    for j, axes in enumerate(uses):
        done = {a for a, k in last.items() if k == j}
        out = [lab for lab in current if lab not in done] + [free.pop()]
        tensor = np.einsum(tensor, current, kernel, axes + out[-1:], out)
        current = out
        free.extend(done)
    return WindowDistribution(target, rule.alphabet, tensor.reshape(-1))


def push_deterministic(
    dist: WindowDistribution, rule: LocalRule, target: CellSet
) -> WindowDistribution:
    """Exact pushforward of a window law through one deterministic rule
    application, marginalized onto `target` (requires target + N inside the
    source window)."""
    return _sweep(dist, rule, target, np.eye(rule.alphabet.size)[rule.table])


def convolve_noise(dist: WindowDistribution, noise: NoiseModel) -> WindowDistribution:
    """Independent per-cell noise convolution of a window law."""
    probs = convolve_sites(dist.probs, channel_matrix(noise), dist.n_cells)
    return WindowDistribution(dist.window, dist.alphabet, probs)


def exact_window_marginal(problem: ConeProblem) -> WindowDistribution:
    """Exact law of X^t on the window, renormalized when float drift exceeds
    1e-12.  Each step is one sweep with the noisy local kernel; from a point
    mass the first step is the outer product of the kernel rows at the
    targets' neighbourhood codes, so the largest cone is never built."""
    rule = problem.rule
    kernel = local_kernel(rule, problem.noise)
    symbols = problem.initial_symbols()
    dist = None if symbols is not None and problem.horizon > 0 else problem.initial_distribution()
    for s in range(problem.horizon, 0, -1):
        target = dependence_cone(problem.window, rule, s - 1)
        if dist is None:
            slots = _neighbour_slots(problem.cone(), rule, target)
            codes = symbols[slots] @ pattern_strides(len(rule.neighborhood), rule.alphabet.size)
            dist = WindowDistribution.product_of_cells(target, rule.alphabet, kernel[codes])
        else:
            dist = _sweep(dist, rule, target, kernel)
        drift = abs(float(dist.probs.sum()) - 1.0)
        if drift > 1e-12:
            dist = WindowDistribution(dist.window, dist.alphabet, dist.probs / dist.probs.sum())
    return dist


def _leakage(J: CellSet, rule: LocalRule) -> float:
    """c(J) = (|dM^2r(J)| + |dM^r(J)|) h_max."""
    r = rule.radius
    return (len(moore_boundary(J, 2 * r)) + len(moore_boundary(J, r))) * rule.alphabet.h_max


def leakage_constants(J: CellSet, rule: LocalRule, noise: NoiseModel):
    """Boundary constants: c(J) = (|dM^2r(J)| + |dM^r(J)|) h_max and
    c_tilde(J) = ((1-kappa)/kappa) c(J)."""
    c, k = _leakage(J, rule), kappa(noise)
    return c, (1.0 - k) / k * c


def check_evolution_bound(
    problem: ConeProblem, law: WindowDistribution, surjective: bool | None = None
) -> BoundReport:
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
    return BoundReport("evolution/entropy-floor", lhs, rhs, lhs >= rhs - SLACK)


def check_surjective_step_bound(
    rule: LocalRule, J: CellSet, initial: WindowDistribution
) -> BoundReport:
    """One deterministic step of a surjective CA loses at most c(J) nats:
    H((FX)_J) >= H(X_J) - c(J).

    The initial law must cover moore(J, 2r); on that cone the pattern on J is
    a function of the boundary ring and the image on moore(J, r), so the
    infinite-lattice constant applies verbatim.
    """
    if initial.window != moore(J, 2 * rule.radius):
        raise ValueError("initial law must live on moore(J, 2r)")
    h_after = entropy(push_deterministic(initial, rule, J))
    rhs = entropy(initial.marginal(J)) - _leakage(J, rule)
    return BoundReport("surjective-step/entropy-loss", h_after, rhs, h_after >= rhs - SLACK)
