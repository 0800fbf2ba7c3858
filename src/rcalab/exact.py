"""Exact law of the noisy trajectory on a finite window by a kernel sweep
over the dependence cone, plus the boundary leakage constants and the
entropy-evolution bound checker.

Per step the distribution lives on a shrinking cone: the law on moore(A, r*s)
is contracted, one target cell at a time, against the PCA local kernel
phi(u, b) = q(b - f(u)) onto moore(A, r*(s-1)), so the rule and the noise are
one batched matmul per target cell and every source cell is summed out after
its last use.  The same sweep serves every dimension.  A point-mass start skips
the largest cone: its first step is a product of kernel rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import SLACK, BoundReport
from .entropy import WindowDistribution, check_bytes, entropy
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

    def __post_init__(self):
        if self.rule.alphabet.factors != self.noise.alphabet.factors:
            raise ValueError("rule and noise alphabets differ")
        if self.window.dim != self.rule.dim:
            raise ValueError("window dimension does not match the rule")
        if len(self.window) == 0:
            raise ValueError("window must be non-empty")
        self.initial_symbols()  # refuses an initial that does not fit the cone
        # four laws on the largest cone (from a point mass, the first step builds cone(t - 1)) and two kernels
        t = self.horizon if isinstance(self.initial, WindowDistribution) else max(self.horizon - 1, 0)
        size, cells = self.rule.alphabet.size, len(dependence_cone(self.window, self.rule, t))
        n_bytes = 8 * (4 * size ** cells + 2 * size ** (len(self.rule.neighborhood) + 1))
        check_bytes(n_bytes, f"the kernel sweep over a {cells}-cell cone")

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
            raise ValueError(f"point initial must give {len(cone)} symbols, one per cone cell")
        if symbols.min() < 0 or symbols.max() >= size:
            raise ValueError("initial symbols outside the alphabet")
        return symbols

    def initial_distribution(self) -> WindowDistribution:
        symbols = self.initial_symbols()
        if symbols is None:
            return self.initial
        code = int(symbols @ pattern_strides(len(symbols), self.rule.alphabet.size))
        return WindowDistribution.point_mass(self.cone(), self.rule.alphabet, code)


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

    Source axes no target uses are summed out first.  Then each target cell,
    in canonical order, is one batched matmul: the cone tensor is viewed as
    (kept, rest, done), where kept are the target's source axes that a later
    target uses again, done those whose last user it is and rest all other
    axes, and the kernel as (kept, done, Sigma).  The product (kept, rest,
    Sigma) is the next tensor as it lies in memory, so the view is free
    whenever each of the three groups is one run of memory axes, as in every
    1D step.  Source axes are labelled by their slot and output axes by ~j in
    a list kept in memory order.  Output axes only ever sit in rest, which
    keeps its order, and each new one goes last, so the result comes out in
    canonical target order."""
    size = rule.alphabet.size
    uses = _neighbour_slots(dist.window, rule, target).tolist()
    last = {a: j for j, axes in enumerate(uses) for a in axes}
    labels = [a for a in range(dist.n_cells) if a in last]
    tensor = dist.probs.reshape((size,) * dist.n_cells)
    if len(labels) < dist.n_cells:
        tensor = tensor.sum(axis=tuple(a for a in range(dist.n_cells) if a not in last))
    kernel = kernel.reshape((size,) * (len(rule.neighborhood) + 1))
    for j, axes in enumerate(uses):
        done = [a for a in labels if last.get(a) == j]
        kept = [a for a in labels if a in axes and a not in done]
        rest = [a for a in labels if a not in axes]
        order = [labels.index(a) for a in kept + rest + done]
        view = tensor.transpose(order).reshape(size ** len(kept), -1, size ** len(done))
        local = [axes.index(a) for a in kept + done] + [len(axes)]
        local = kernel.transpose(local).reshape(size ** len(kept), size ** len(done), size)
        labels = kept + rest + [~j]
        tensor = np.matmul(view, local).reshape((size,) * len(labels))
        del view, local  # the next reordered copy is made without this one
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


def check_evolution_bound(problem: ConeProblem, law: WindowDistribution, surjective: bool) -> BoundReport:
    """Entropy floor H(X^t_J) >= [1 - (1-kappa)^t] |J| h_max - c_tilde(J),
    with the left side the entropy of `law`, the exact window law
    exact_window_marginal(problem).

    The bound is claimed for surjective rules only: `surjective` is the
    rule's verdict, decided once per rule by the caller (for a 1D rule,
    analysis.test_surjective), and False is refused.
    """
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
