"""Exact laws of the noisy trajectory on a finite window, one for every
t = 0..T, by a kernel sweep over its light cones, plus the boundary leakage
constants and the entropy-evolution and one-step bound checkers.

Per step the distribution lives on a shrinking light cone: the law on
A + sN', N' = N u {0}, which holds every cell whose state s steps before the
end can reach the window A and holds A itself, is contracted, one target
cell at a time, against the PCA local kernel phi(u, b) = q(b - f(u)) onto
A + (s-1)N', so the rule and the noise are one batched matmul per target
cell and every source cell is summed out after its last use.  The law after
each step, marginalized onto A, is the window law at that step, so one pass
gives the whole curve.  The same sweep serves every dimension.  From a
point mass the window laws at t = 0 and t = 1 are products of rows, one-hot
rows of the start's symbols and kernel rows, and the law on the cone after
the first step is never built: the first sweep takes each kernel row in at
its source cell's first use.  A solve plans every step before it allocates,
then one runner (`_Plan.run`) takes the plan's sweeps in two flat buffers of
its largest tensor; a deterministic pushforward is a one-sweep plan run the
same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bounds import SLACK, BoundReport
from .entropy import WindowDistribution, check_bytes, entropy
from .lattice import CellSet, marginalize_patterns, moore, moore_boundary, pattern_strides
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
    """moore(A, r*t), the domain on which an initial is given for window A at
    horizon t: it holds every cell that can influence A after t steps, and it
    nests across t.  The sweep itself runs on the light cones A + s(N u {0})
    (`_light_cones`), which are smaller unless N is the full Moore box,
    where they are moore(A, r*s)."""
    if t < 0:
        raise ValueError("horizon must be non-negative")
    return moore(A, rule.radius * int(t))


def _light_cones(A: CellSet, rule: LocalRule, t: int) -> list[CellSet]:
    """A + s(N u {0}) for s = 0..t: the cells whose state s or fewer steps
    earlier can reach A, so each cone holds A and the next (A + sN when
    0 is in N).  Each cone grows on the last.  The law on every cone but the
    last lies in the sweep's buffers (on the last only when the initial is a
    law, which the plan counts), so a cone before the last whose law alone
    breaks the budget is refused as soon as it is built, before any larger
    one is."""
    offsets = np.array(sorted({*rule.neighborhood, (0,) * A.dim}), dtype=np.int64)
    cones = [A]
    for s in range(1, t + 1):
        cells = cones[-1].as_array()[:, None, :] + offsets
        cones.append(CellSet(cells.reshape(-1, A.dim), dim=A.dim))
        if s < t:
            _check_sweep_bytes(rule.alphabet.size ** len(cones[-1]), rule)
    return cones


class _Plan(NamedTuple):
    """Every step of one solve, or the one sweep of a pushforward, planned
    before anything is allocated.  From a point mass, `codes` are the
    neighbourhood codes of the cells of the light cone A + (T-1)N': the law
    after step 1 is the product of the kernel rows at those codes.  That law
    is never built: its window law is the product of the rows at A, and the
    first of `sweeps` takes each row in at its source cell's first use.
    From a law, `codes` is None and the first sweep runs from the initial's
    cone.  Each next sweep runs from the last one's target, down to A.
    After step t the law lies on `cones[t - 1]`.  `largest` is the most
    states a tensor of the solve holds."""

    codes: np.ndarray | None
    sweeps: list
    cones: list
    largest: int

    def run(self, law: np.ndarray, kernel: np.ndarray, rows=None):
        """Yield the flat law after each sweep, run from the flat law `law`
        (np.ones(1), the empty product, when the first sweep takes `rows`,
        the kernel rows at `codes`) in two flat buffers of `largest` states
        that only this runner holds.  A yielded law is a view of one buffer,
        which the caller may change in place before the next sweep reads it."""
        pair = [np.empty(self.largest), np.empty(self.largest)]
        for sweep in self.sweeps:
            law = _run_sweep(sweep, law, kernel, pair, rows)
            yield law


@dataclass(frozen=True, eq=False)
class ConeProblem:
    """Exact-evolution instance: window A observed at times 0..horizon, with
    the initial condition given on moore(A, r*horizon) (`dependence_cone`).

    `initial` is a point mass, given as a per-cell symbol array in the
    cone's canonical cell order, or a WindowDistribution on the cone.
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
        curve = (self.horizon + 1) * self.rule.alphabet.size ** len(self.window)
        _check_sweep_bytes(self._plan.largest, self.rule, curve)

    @cached_property
    def _plan(self) -> _Plan:
        size, symbols = self.rule.alphabet.size, self.initial_symbols()  # refuses an initial that does not fit
        if self.horizon == 0:
            return _Plan(None, [], [], 0)
        # a cone too large is refused before the sweeps, which cost about
        # |cone|^2 each, are planned
        cones = _light_cones(self.window, self.rule, self.horizon - 1)[::-1]
        steps, codes = list(zip(cones, cones[1:])), None
        if symbols is None:
            steps.insert(0, (self.cone(), cones[0]))
        else:
            slots = _neighbour_slots(self.cone(), self.rule, cones[0])
            codes = symbols[slots] @ pattern_strides(len(self.rule.neighborhood), size)
        sweeps = [
            _Sweep(source, self.rule, target, from_rows=codes is not None and i == 0)
            for i, (source, target) in enumerate(steps)
        ]
        return _Plan(codes, sweeps, cones, max((sweep.largest for sweep in sweeps), default=0))

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
        symbols = np.asarray(self.initial, dtype=np.int64)
        if symbols.shape != (len(cone),):
            raise ValueError(f"point initial must give {len(cone)} symbols, one per cone cell")
        if symbols.min() < 0 or symbols.max() >= size:
            raise ValueError("initial symbols outside the alphabet")
        return symbols


def _neighbour_slots(source: CellSet, rule: LocalRule, target: CellSet) -> np.ndarray:
    """Source-cell index of each target cell's neighbours, (|target|, |N|)."""
    pos = {c: i for i, c in enumerate(source.cells)}
    cells = [tuple(c + o for c, o in zip(cell, off)) for cell in target.cells for off in rule.neighborhood]
    if not all(c in pos for c in cells):
        raise ValueError("target neighbourhood leaves the source window")
    return np.array([pos[c] for c in cells], dtype=np.int64).reshape(len(target), -1)


def _check_sweep_bytes(largest: int, rule: LocalRule, curve: int = 0) -> None:
    """A sweep holds two buffers of its largest tensor and two kernels,
    local_kernel's and one reordered copy, and a solve also the `curve`
    entries of its window laws."""
    kernel = rule.alphabet.size ** (len(rule.neighborhood) + 1)
    check_bytes(8 * (2 * largest + 2 * kernel + curve), f"the kernel sweep in two buffers of {largest} states")


class _Step(NamedTuple):
    """One target cell of a sweep: the (memory position, source slot) of
    each row multiplied in as a new axis first and the (kernel axis, source
    slot) of each row contracted into the kernel, the tensor's axes in
    (kept, rest, done) order, whether that view is a free reshape, its
    (kept, rest, done) state counts, and the kernel's axes in (kept, done,
    output) order."""

    grow: tuple
    fold: tuple
    order: tuple
    free: bool
    shape: tuple
    local: tuple


class _Sweep:
    """Plan of one application of the local kernel (one row per neighbourhood
    code, one column per output symbol) to a law on `source`, which must hold
    target + N, marginalized onto `target`.  With `from_rows` that law is a
    product of per-cell rows and the tensor starts with no axes: a source
    cell enters at its first use, as a row contracted into that target's
    kernel when no later target uses it, else as a new axis multiplied in
    right before that target's matmul.  A law's axes are all there from the
    start, and its axes no target uses are summed out first.

    Each target cell, in canonical order, is one batched matmul: the cone
    tensor is viewed as (kept, rest, done), where kept are the target's
    source axes that a later target uses again, done those whose last user
    it is and rest all other axes, and the kernel as (kept, done, Sigma).
    The product (kept, rest, Sigma) is the next tensor as it lies in memory,
    so the view is free whenever each of the three groups is one run of
    memory axes, as in every 1D step; otherwise (2D) the reordered tensor is
    copied first.  Source axes are labelled by their slot and output axes by
    ~j in a list kept in the memory order a law's tensor would have; the
    tensor holds the labels `held`, in that order, so a new axis goes where
    a law's would lie and a group that is one run for a law is one run here.
    Output axes only ever sit in rest, which keeps its order, and each new
    one goes last, so the result comes out in canonical target order.
    `largest` counts the states of every tensor the sweep writes: the
    summed-out law, each product with a row, each copy and each matmul."""

    def __init__(self, source: CellSet, rule: LocalRule, target: CellSet, from_rows: bool = False):
        size = rule.alphabet.size
        uses = _neighbour_slots(source, rule, target).tolist()
        last = {a: j for j, axes in enumerate(uses) for a in axes}
        labels = [a for a in range(len(source)) if a in last]
        held = set() if from_rows else set(labels)
        self.n_axes, self.steps = 0 if from_rows else len(source), []
        self.unused = () if from_rows else tuple(a for a in range(len(source)) if a not in last)
        sizes = [size ** len(labels)] if self.unused else []
        for j, axes in enumerate(uses):
            grow, fold = [], [(axes.index(a), a) for a in axes if a not in held and last[a] == j]
            for i, a in enumerate(labels):
                if a in axes and a not in held and last[a] != j:
                    grow.append((sum(b in held for b in labels[:i]), a))
                    held.add(a)
                    sizes.append(size ** len(held))
            tensor = [a for a in labels if a in held]
            at = {a: i for i, a in enumerate(tensor)}
            done = [a for a in tensor if last.get(a) == j]
            kept = [a for a in tensor if a in axes and last[a] != j]
            rest = [a for a in tensor if a not in axes]
            order = [at[a] for a in kept + rest + done]
            starts = {len(kept), len(kept) + len(rest)}
            free = all(p in starts or order[p] == order[p - 1] + 1 for p in range(1, len(order)))
            if not free:
                sizes.append(size ** len(tensor))
            local = [axes.index(a) for a in kept + done] + [len(axes)]
            shape = (size ** len(kept), size ** len(rest), size ** len(done))
            self.steps.append(_Step(tuple(grow), tuple(fold), tuple(order), free, shape, tuple(local)))
            labels = [a for a in labels if a in axes and last[a] != j] + [a for a in labels if a not in axes] + [~j]
            held = {*kept, *rest, ~j}
            sizes.append(size ** len(held))
        self.largest = max(sizes)


def _next(pair: list, shape) -> np.ndarray:
    """The free buffer, pair[1], viewed as `shape` and swapped to pair[0]: the
    next tensor is written there while its input stays in pair[1]."""
    pair.reverse()
    return pair[0][: math.prod(shape)].reshape(shape)


def _run_sweep(sweep: _Sweep, probs: np.ndarray, kernel: np.ndarray, pair: list, rows=None) -> np.ndarray:
    """Flat target law of a planned sweep of the flat law `probs` on the
    sweep's starting axes (np.ones(1), the empty product, for a sweep from
    `rows`, the kernel rows of the source cells), computed in pair's two
    flat buffers of at least sweep.largest states, with probs in pair[0] or
    in neither.  Each tensor is written into the buffer that does not hold
    its input, and the law comes back as a view of pair[0]."""
    size = kernel.shape[-1]
    tensor = probs.reshape((size,) * sweep.n_axes)
    if sweep.unused:
        shape = (size,) * (sweep.n_axes - len(sweep.unused))
        tensor = np.sum(tensor, axis=sweep.unused, out=_next(pair, shape))
    for step in sweep.steps:
        for at, slot in step.grow:
            flat = tensor.reshape(size ** at, 1, -1)
            # an outer product as a matmul over one term, exact: a ufunc
            # (np.multiply.outer, broadcast or strided) would allocate buffers
            tensor = np.matmul(rows[slot][:, None], flat, out=_next(pair, (flat.shape[0], size, flat.shape[2])))
        view = tensor.reshape((size,) * len(step.order)).transpose(step.order)
        if not step.free:
            copy = _next(pair, view.shape)
            np.copyto(copy, view)
            view = copy
        kept, rest, done = step.shape
        # the kernel with the folded rows summed in, its axes in (kept, done, output) order
        n_axes = len(step.local) + len(step.fold)
        operands = [kernel.reshape((size,) * n_axes), list(range(n_axes))]
        for axis, slot in step.fold:
            operands += [rows[slot], [axis]]
        local = np.einsum(*operands, list(step.local)).reshape(kept, done, size)
        # no copy: the reordered copy, or a view the plan marks free, lies as (kept, rest, done)
        tensor = np.matmul(view.reshape(step.shape), local, out=_next(pair, (kept, rest, size)))
        del local  # the next reordered kernel is made without this one
    return tensor.reshape(-1)


def push_deterministic(
    dist: WindowDistribution, rule: LocalRule, target: CellSet
) -> WindowDistribution:
    """Exact pushforward of a window law through one deterministic rule
    application, marginalized onto `target` (requires target + N inside the
    source window): a one-sweep plan, run as a solve's are."""
    sweep = _Sweep(dist.window, rule, target)
    _check_sweep_bytes(sweep.largest, rule)
    # unpacking runs the plan to its end, which frees the buffer the law is not in
    (law,) = _Plan(None, [sweep], [target], sweep.largest).run(dist.probs, np.eye(rule.alphabet.size)[rule.table])
    return WindowDistribution(target, rule.alphabet, law.copy())


def convolve_noise(dist: WindowDistribution, noise: NoiseModel) -> WindowDistribution:
    """Independent per-cell noise convolution of a window law."""
    probs = convolve_sites(dist.probs, channel_matrix(noise), dist.n_cells)
    return WindowDistribution(dist.window, dist.alphabet, probs)


def _renormalize(law: np.ndarray) -> None:
    """Divide a flat law by its total, in place, when that drifts from 1 by
    more than 1e-12."""
    total = law.sum()
    if abs(float(total) - 1.0) > 1e-12:
        law /= total


def _product_of_rows(cells: CellSet, rows: np.ndarray, window: CellSet, alphabet) -> np.ndarray:
    """Flat law on `window` of independent cells, each with its row of
    `rows`, one row per cell of `cells`, which holds the window."""
    at = {c: i for i, c in enumerate(cells.cells)}
    return WindowDistribution.product_of_cells(window, alphabet, rows[[at[c] for c in window.cells]]).probs


def exact_window_marginal(problem: ConeProblem) -> list[WindowDistribution]:
    """Exact laws of X^t on the window for t = 0..horizon, a list indexed by
    t, each step's law renormalized when float drift exceeds 1e-12.  The
    solve runs its plan once (`_Plan.run`): each step is one sweep with the
    noisy local kernel onto the next light cone, whose law, which holds A,
    is marginalized onto A out of place; at t = horizon that cone is A.
    From a point mass the window laws at t = 0 and t = 1 are products of
    rows at A, one-hot rows of the start's symbols and kernel rows; the law
    after step 1, on A + (T-1)N', is never built, as the first sweep takes
    each kernel row in at its first use."""
    rule, plan, window = problem.rule, problem._plan, problem.window
    size, symbols = rule.alphabet.size, problem.initial_symbols()
    curve = np.empty((problem.horizon + 1, size ** len(window)))
    if symbols is None:
        curve[0] = problem.initial.marginal(window).probs
    else:
        curve[0] = _product_of_rows(problem.cone(), np.eye(size)[symbols], window, rule.alphabet)
    if problem.horizon > 0:
        kernel = local_kernel(rule, problem.noise)
        if plan.codes is None:
            law, rows, start = problem.initial.probs, None, 1
        else:
            rows = kernel[plan.codes]
            curve[1] = _product_of_rows(plan.cones[0], rows, window, rule.alphabet)
            _renormalize(curve[1])
            law, start = np.ones(1), 2  # the empty product: the first sweep starts with no axes
        for t, law in enumerate(plan.run(law, kernel, rows), start=start):
            _renormalize(law)
            curve[t] = marginalize_patterns(law, plan.cones[t - 1], window, size)
    return [WindowDistribution(window, rule.alphabet, law) for law in curve]


def _leakage(J: CellSet, rule: LocalRule) -> float:
    """c(J) = (|dM^2r(J)| + |dM^r(J)|) h_max."""
    r = rule.radius
    return (len(moore_boundary(J, 2 * r)) + len(moore_boundary(J, r))) * rule.alphabet.h_max


def leakage_constants(J: CellSet, rule: LocalRule, noise: NoiseModel):
    """Boundary constants: c(J) = (|dM^2r(J)| + |dM^r(J)|) h_max and
    c_tilde(J) = ((1-kappa)/kappa) c(J)."""
    c, k = _leakage(J, rule), kappa(noise)
    return c, (1.0 - k) / k * c


def check_evolution_bound(problem: ConeProblem, t: int, law: WindowDistribution, surjective: bool) -> BoundReport:
    """Entropy floor H(X^t_J) >= [1 - (1-kappa)^t] |J| h_max - c_tilde(J)
    at a step 0 <= t <= problem.horizon, with the left side the entropy of
    `law`, the exact window law exact_window_marginal(problem)[t].

    The bound is claimed for surjective rules only: `surjective` is the
    rule's verdict, decided once per rule by the caller (for a 1D rule,
    analysis.test_surjective), and False is refused.
    """
    if not surjective:
        raise ValueError("evolution bound applies to surjective rules only")
    if not 0 <= t <= problem.horizon:
        raise ValueError(f"step {t} outside 0..{problem.horizon}")
    if law.window != problem.window:
        raise ValueError("law must live on the problem's window")
    lhs = entropy(law)
    k = kappa(problem.noise)
    _, c_tilde = leakage_constants(problem.window, problem.rule, problem.noise)
    h = problem.rule.alphabet.h_max
    rhs = (1.0 - (1.0 - k) ** t) * len(problem.window) * h - c_tilde
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
