"""Trajectory sampling on tori, empirical window marginals, and mixing-time
estimation for windows too large for exact enumeration.

Replicates are processed in fixed blocks of REPLICATE_BLOCK rows; every
uniform draw comes from a Philox stream addressed by (seed, stream, lane,
time, block), so each replicate's trajectory is a pure function of
(seed, replicate-index) no matter how many replicates run or on how many
threads.

The state of a block is held in the alphabet's smallest unsigned dtype.  One
block-step is a rule lookup on neighbourhood codes (rules.apply_table) and a
noise lookup perm_table[Z, x] with Z drawn by noise.sample_noise_symbols.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entropy import WindowDistribution, check_cap
from .lattice import CellSet, diameter, encode_patterns, pattern_strides
from .noise import NoiseModel, permute_symbols, sample_noise_symbols
from .rng import CounterRng, LANE_INIT, LANE_NOISE, REPLICATE_BLOCK
from .rules import LocalRule, TorusConfiguration, apply_table

__all__ = [
    "GENERATORS",
    "SimulationPlan",
    "sample_trajectory",
    "window_pattern_counts",
    "empirical_marginal",
    "MixingEstimate",
    "estimate_mixing_time",
    "adversarial_family",
    "mixing_scan",
    "marginalize_counts",
]

GENERATORS = ("all-zeros", "all-ones", "checkerboard", "seeded-random")


@dataclass(frozen=True, eq=False)
class SimulationPlan:
    """One reproducible batch of noisy-CA trajectories with an observation
    window.

    Wrap-free means every torus side is at least diameter(window) + 2rT + 1,
    so the dependence cone of the window never wraps and torus dynamics agree
    with the infinite lattice; smaller tori require allow_wrap=True and are
    flagged wrap-contaminated.
    """

    rule: LocalRule
    noise: NoiseModel
    sides: tuple[int, ...]
    generator: object  # name from GENERATORS or an explicit torus array
    horizon: int
    replicates: int
    seed: int
    window: CellSet
    stream: int = 0
    allow_wrap: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(int(s) for s in self.sides))
        if self.rule.alphabet.factors != self.noise.alphabet.factors:
            raise ValueError("rule and noise alphabets differ")
        if len(self.sides) != self.rule.dim:
            raise ValueError("torus dimension does not match the rule")
        if min(self.sides) < 2 * self.rule.radius + 1:
            raise ValueError("torus smaller than the rule neighbourhood")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if self.window.dim != self.rule.dim:
            raise ValueError("window dimension does not match the rule")
        if not isinstance(self.generator, str):
            arr = np.asarray(self.generator, dtype=np.int64)
            if arr.shape != self.sides:
                raise ValueError("explicit initial pattern must match the torus shape")
            if arr.min() < 0 or arr.max() >= self.rule.alphabet.size:
                raise ValueError("explicit initial pattern has symbols outside the alphabet")
            object.__setattr__(self, "generator", arr)
        elif self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if not self.allow_wrap and self.wrap_contaminated:
            raise ValueError(
                "torus too small for wrap-free observation"
                " (pass allow_wrap=True for a wrap-contaminated run)"
            )

    @property
    def wrap_contaminated(self) -> bool:
        need = diameter(self.window) + 2 * self.rule.radius * self.horizon + 1
        return min(self.sides) < need

    @property
    def generator_label(self) -> str:
        if isinstance(self.generator, str):
            return self.generator
        return "pattern"

    def _initial_block(self, block: int, rows: int) -> np.ndarray:
        shape = (rows,) + self.sides
        dtype = self.rule.alphabet.state_dtype
        if isinstance(self.generator, np.ndarray):
            return np.broadcast_to(self.generator.astype(dtype), shape).copy()
        if self.generator == "all-zeros":
            return np.zeros(shape, dtype=dtype)
        if self.generator == "all-ones":
            return np.ones(shape, dtype=dtype)
        if self.generator == "checkerboard":
            grids = np.meshgrid(*[np.arange(s) for s in self.sides], indexing="ij")
            board = sum(grids) % 2
            return np.broadcast_to(board.astype(dtype), shape).copy()
        rng = CounterRng(self.seed, self.stream).block(LANE_INIT, 0, block)
        full = rng.integers(0, self.rule.alphabet.size, size=(REPLICATE_BLOCK,) + self.sides)
        return full[:rows].astype(dtype)

    def _window_flat_index(self) -> np.ndarray:
        cols = []
        for cell in self.window.cells:
            wrapped = tuple(c % s for c, s in zip(cell, self.sides))
            cols.append(np.ravel_multi_index(wrapped, self.sides))
        return np.asarray(cols, dtype=np.int64)


def _step_block(plan: SimulationPlan, data: np.ndarray, block: int, t: int) -> np.ndarray:
    updated = apply_table(data, plan.rule, batch_dims=1)
    rng = CounterRng(plan.seed, plan.stream).block(LANE_NOISE, t, block)
    z = sample_noise_symbols(plan.noise, (REPLICATE_BLOCK,) + plan.sides, rng)
    return permute_symbols(plan.noise, z[: data.shape[0]], updated)


def sample_trajectory(plan: SimulationPlan, replicate: int) -> list[TorusConfiguration]:
    """Full trajectory X^0..X^T of one replicate (identical to the row this
    replicate occupies in a batched run)."""
    if not 0 <= replicate < plan.replicates:
        raise ValueError("replicate index out of range")
    block, row = divmod(replicate, REPLICATE_BLOCK)
    lo = block * REPLICATE_BLOCK
    rows = min(plan.replicates - lo, REPLICATE_BLOCK)
    data = plan._initial_block(block, rows)
    out = [TorusConfiguration(plan.sides, data[row].astype(np.int64))]
    for t in range(1, plan.horizon + 1):
        data = _step_block(plan, data, block, t)
        out.append(TorusConfiguration(plan.sides, data[row].astype(np.int64)))
    return out


def _block_counts(plan: SimulationPlan, block: int, counts: np.ndarray) -> None:
    """Add one block's window pattern counts into counts (shape (horizon+1,
    |Sigma|^|A|))."""
    size = plan.rule.alphabet.size
    cols = plan._window_flat_index()
    strides = pattern_strides(len(cols), size)
    n_patterns = counts.shape[1]
    lo = block * REPLICATE_BLOCK
    rows = min(plan.replicates - lo, REPLICATE_BLOCK)
    data = plan._initial_block(block, rows)
    for t in range(plan.horizon + 1):
        if t:
            data = _step_block(plan, data, block, t)
        flat = data.reshape(rows, -1)
        counts[t] += np.bincount(flat[:, cols] @ strides, minlength=n_patterns)


def window_pattern_counts(plan: SimulationPlan, threads: int = 1) -> np.ndarray:
    """Pattern counts over the window, shape (horizon+1, |Sigma|^|A|).

    Each worker adds its blocks into one accumulator of its own; the sums are
    integers, so the reduction is exact and thread-count-independent, and
    memory does not grow with the number of blocks.
    """
    n_patterns = plan.rule.alphabet.size ** len(plan.window)
    check_cap(n_patterns)
    n_blocks = -(-plan.replicates // REPLICATE_BLOCK)
    workers = max(min(threads, n_blocks), 1)

    def worker(first: int) -> np.ndarray:
        counts = np.zeros((plan.horizon + 1, n_patterns), dtype=np.int64)
        for b in range(first, n_blocks, workers):
            _block_counts(plan, b, counts)
        return counts

    if workers == 1:
        return worker(0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(worker, range(workers)))
    return sum(parts[1:], parts[0])


def empirical_marginal(plan: SimulationPlan, t: int, threads: int = 1):
    """Empirical window law at time t plus per-pattern binomial standard
    errors."""
    if not 0 <= t <= plan.horizon:
        raise ValueError("t outside the plan horizon")
    counts = window_pattern_counts(plan, threads=threads)[t]
    r = plan.replicates
    phat = counts / r
    se = np.sqrt(phat * (1.0 - phat) / r)
    dist = WindowDistribution(plan.window, plan.rule.alphabet, phat)
    return dist, se


def _tv_curve(counts: np.ndarray, replicates: int):
    """Per-time TV distance to uniform with delta-method standard errors."""
    n_patterns = counts.shape[1]
    phat = counts / replicates
    dev = phat - 1.0 / n_patterns
    tv = 0.5 * np.abs(dev).sum(axis=1)
    m = (np.sign(dev) * phat).sum(axis=1)
    se = 0.5 * np.sqrt(np.clip(1.0 - m * m, 0.0, None) / replicates)
    return tv, se


def marginalize_counts(counts: np.ndarray, window: CellSet, sub: CellSet, size: int) -> np.ndarray:
    """Re-express pattern counts over `window` as counts over a sub-window."""
    if not sub.issubset(window):
        raise ValueError("sub-window must be contained in the window")
    keep = [window.cells.index(c) for c in sub.cells]
    codes = np.arange(counts.shape[-1], dtype=np.int64)
    symbols = (codes[:, None] // pattern_strides(len(window), size)) % size
    sub_codes = encode_patterns(symbols[:, keep], size)
    out = np.zeros(counts.shape[:-1] + (size ** len(sub),), dtype=counts.dtype)
    np.add.at(out.T, sub_codes, counts.T)
    return out


@dataclass
class MixingEstimate:
    """Mixing-time estimate with its evidence.

    t_mix is the smallest t with max_g (tv_g + 2 SE_g) <= epsilon; when the
    horizon runs out first, converged is False and t_mix holds the certified
    lower bound (horizon + 1).
    """

    epsilon: float
    t_mix: int
    converged: bool
    dhat: np.ndarray
    dhat_se: np.ndarray
    curves: dict = field(default_factory=dict)
    monotone_within_3sigma: bool = True

    @property
    def lower_bound_only(self) -> bool:
        return not self.converged


def estimate_mixing_time(
    plans, epsilon: float, threads: int = 1, counts_by_plan=None
) -> MixingEstimate:
    """Mixing time of the shared observation window, maximizing the empirical
    distance over the plan family (a certified lower-bound family for the sup
    over all initial configurations)."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    plans = list(plans)
    window = plans[0].window
    horizon = plans[0].horizon
    if any(p.window != window or p.horizon != horizon for p in plans):
        raise ValueError("plans must share window and horizon")
    curves = {}
    tv_all, se_all = [], []
    for i, plan in enumerate(plans):
        counts = (
            counts_by_plan[i]
            if counts_by_plan is not None
            else window_pattern_counts(plan, threads=threads)
        )
        tv, se = _tv_curve(counts, plan.replicates)
        label = f"{plan.generator_label}#{plan.stream}"
        curves[label] = np.column_stack([tv, se])
        tv_all.append(tv)
        se_all.append(se)
    tv_all = np.asarray(tv_all)
    se_all = np.asarray(se_all)
    worst = np.argmax(tv_all, axis=0)
    steps = np.arange(horizon + 1)
    dhat = tv_all[worst, steps]
    dhat_se = se_all[worst, steps]
    threshold = (tv_all + 2.0 * se_all).max(axis=0)
    hit = np.nonzero(threshold <= epsilon)[0]
    converged = hit.size > 0
    t_mix = int(hit[0]) if converged else horizon + 1
    diffs = np.diff(dhat)
    sigma = np.sqrt(dhat_se[1:] ** 2 + dhat_se[:-1] ** 2)
    monotone = bool((diffs <= 3.0 * sigma + 1e-12).all())
    return MixingEstimate(
        epsilon=epsilon,
        t_mix=t_mix,
        converged=converged,
        dhat=dhat,
        dhat_se=dhat_se,
        curves=curves,
        monotone_within_3sigma=monotone,
    )


def adversarial_family(
    rule: LocalRule,
    noise: NoiseModel,
    window: CellSet,
    horizon: int,
    replicates: int,
    seed: int,
    sides=None,
    n_random: int = 8,
    allow_wrap: bool = False,
) -> list[SimulationPlan]:
    """Default initial-configuration family for distance-to-uniform sups:
    all-zeros, all-ones, checkerboard, and n_random seeded-random starts,
    each on its own stream."""
    if sides is None:
        need = diameter(window) + 2 * rule.radius * horizon + 1
        sides = (max(need, 2 * rule.radius + 1),) * rule.dim
    gens = ["all-zeros", "all-ones", "checkerboard"] + ["seeded-random"] * n_random
    return [
        SimulationPlan(
            rule, noise, tuple(sides), g, horizon, replicates, seed,
            window, stream=i, allow_wrap=allow_wrap,
        )
        for i, g in enumerate(gens)
    ]


def mixing_scan(
    rule: LocalRule,
    noise: NoiseModel,
    window_sides,
    epsilon: float,
    horizon: int,
    replicates: int,
    seed: int,
    dim: int = 1,
    threads: int = 1,
    n_random: int = 8,
):
    """Mixing-time estimates for a family of nested hypercube windows S_n,
    sharing one batch of trajectories per generator (sub-window counts are
    exact marginalizations of the largest window's counts)."""
    from .lattice import hypercube

    window_sides = sorted(int(n) for n in window_sides)
    big = hypercube(window_sides[-1], dim)
    plans = adversarial_family(
        rule, noise, big, horizon, replicates, seed, n_random=n_random
    )
    big_counts = [window_pattern_counts(p, threads=threads) for p in plans]
    out = {}
    for n in window_sides:
        sub = hypercube(n, dim)
        counts = [
            marginalize_counts(c, big, sub, rule.alphabet.size) for c in big_counts
        ]
        sub_plans = [
            SimulationPlan(
                p.rule, p.noise, p.sides, p.generator, p.horizon, p.replicates,
                p.seed, sub, stream=p.stream, allow_wrap=p.allow_wrap,
            )
            for p in plans
        ]
        out[n] = estimate_mixing_time(sub_plans, epsilon, counts_by_plan=counts)
    return out
