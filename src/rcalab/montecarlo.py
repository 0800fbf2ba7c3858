"""Trajectory sampling on tori, empirical window marginals, and mixing-time
estimation for windows too large for exact enumeration.

Replicates are processed in fixed blocks of REPLICATE_BLOCK rows; every
uniform draw comes from a Philox stream addressed by (seed, stream, lane,
time, block), so each replicate's trajectory is a pure function of
(seed, replicate-index) no matter how many replicates run or on how many
threads.  Each worker builds one generator per plan and moves it to each
draw's address with CounterRng.seek, which draws exactly what a generator
built there would.

The state of a block is held in the alphabet's smallest unsigned dtype.  The
rule and the noise are fused into one table, step_table[code * |Z| + z] =
perm_table[z, rule.table[code]], built once per plan and worker: a
block-step is one uniform draw, the neighbourhood codes scaled by |Z| plus
the comparison-sum noise index (noise.add_noise_index), and one lookup.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entropy import STATE_CAP, CapExceededError, WindowDistribution, mixing_time
from .lattice import CellSet, diameter, hypercube, marginalize_patterns, pattern_strides
from .noise import NoiseModel, add_noise_index
from .rng import CounterRng, LANE_INIT, LANE_NOISE, REPLICATE_BLOCK
from .rules import LocalRule, TorusConfiguration, neighbourhood_codes

# not called here since the block-step fuses rule and noise into one lookup;
# kept because perfbench/tracer.py patches montecarlo.apply_table and
# montecarlo.sample_noise_symbols
from .noise import sample_noise_symbols  # noqa: F401
from .rules import apply_table  # noqa: F401

__all__ = [
    "GENERATORS",
    "SimulationPlan",
    "sample_trajectory",
    "window_pattern_counts",
    "empirical_marginal",
    "tv_curve",
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

    def _window_flat_index(self) -> np.ndarray:
        cols = []
        for cell in self.window.cells:
            wrapped = tuple(c % s for c, s in zip(cell, self.sides))
            cols.append(np.ravel_multi_index(wrapped, self.sides))
        return np.asarray(cols, dtype=np.int64)


class _BlockStepper:
    """One worker's run of a plan: the fused step table and the window
    columns, built once, and the one generator that every draw of the plan
    moves by CounterRng.seek.

    Draws fill rows in order, so the rows of a partial last block draw only
    their own prefix of the block's stream.
    """

    def __init__(self, plan: SimulationPlan):
        perm_table = plan.noise.perm_table
        self.plan = plan
        self.n_noise = perm_table.shape[0]
        self.step_table = np.ascontiguousarray(perm_table[:, plan.rule.table].T).ravel()
        self.code_dtype = np.min_scalar_type(self.step_table.size - 1)
        self.cols = plan._window_flat_index()
        self.strides = pattern_strides(len(self.cols), plan.rule.alphabet.size)
        self.rng = CounterRng(plan.seed, plan.stream)
        self.gen = self.rng.block(LANE_NOISE)

    def initial(self, block: int) -> np.ndarray:
        """X^0 of the block's rows."""
        plan = self.plan
        rows = min(plan.replicates - block * REPLICATE_BLOCK, REPLICATE_BLOCK)
        shape = (rows,) + plan.sides
        dtype = plan.rule.alphabet.state_dtype
        if isinstance(plan.generator, np.ndarray):
            return np.broadcast_to(plan.generator.astype(dtype), shape).copy()
        if plan.generator == "all-zeros":
            return np.zeros(shape, dtype=dtype)
        if plan.generator == "all-ones":
            return np.ones(shape, dtype=dtype)
        if plan.generator == "checkerboard":
            grids = np.meshgrid(*[np.arange(s) for s in plan.sides], indexing="ij")
            board = sum(grids) % 2
            return np.broadcast_to(board.astype(dtype), shape).copy()
        self.rng.seek(self.gen, LANE_INIT, 0, block)
        return self.gen.integers(0, plan.rule.alphabet.size, size=shape).astype(dtype)


def _step_block(stepper: _BlockStepper, data: np.ndarray, block: int, t: int) -> np.ndarray:
    """X^t of a block from X^(t-1): one draw and one fused lookup."""
    # Draw before building the codes, and free the uniforms before take()
    # widens the codes to intp (8 bytes a cell each): in this order the
    # worker threads' malloc arenas do not keep the freed block temporaries,
    # which otherwise raised lab-mix's peak RSS from 53.7 to 58.8 MB.
    stepper.rng.seek(stepper.gen, LANE_NOISE, t, block)
    u = stepper.gen.random(data.shape)
    code = neighbourhood_codes(data, stepper.plan.rule, batch_dims=1, dtype=stepper.code_dtype)
    code *= stepper.n_noise
    add_noise_index(stepper.plan.noise, u, code)
    del u
    return stepper.step_table.take(code)


def sample_trajectory(plan: SimulationPlan, replicate: int) -> list[TorusConfiguration]:
    """Full trajectory X^0..X^T of one replicate (identical to the row this
    replicate occupies in a batched run)."""
    if not 0 <= replicate < plan.replicates:
        raise ValueError("replicate index out of range")
    block, row = divmod(replicate, REPLICATE_BLOCK)
    stepper = _BlockStepper(plan)
    data = stepper.initial(block)
    out = [TorusConfiguration(plan.sides, data[row].astype(np.int64))]
    for t in range(1, plan.horizon + 1):
        data = _step_block(stepper, data, block, t)
        out.append(TorusConfiguration(plan.sides, data[row].astype(np.int64)))
    return out


def _block_counts(stepper: _BlockStepper, block: int, counts: np.ndarray) -> None:
    """Add one block's window pattern counts into counts (shape (horizon+1,
    |Sigma|^|A|))."""
    data = stepper.initial(block)
    for t in range(stepper.plan.horizon + 1):
        if t:
            data = _step_block(stepper, data, block, t)
        window = data.reshape(data.shape[0], -1)[:, stepper.cols]
        codes = np.einsum("ij,j->i", window, stepper.strides)
        counts[t] += np.bincount(codes, minlength=counts.shape[1])


def window_pattern_counts(plan: SimulationPlan, threads: int = 1) -> np.ndarray:
    """Pattern counts over the window, shape (horizon+1, |Sigma|^|A|).

    Each worker adds its blocks into one int64 accumulator of its own; the
    sums are integers, so the reduction is exact and thread-count-independent,
    and memory does not grow with the number of blocks.  The accumulators'
    bytes are checked against 8 * STATE_CAP before any is allocated.
    """
    n_patterns = plan.rule.alphabet.size ** len(plan.window)
    n_blocks = -(-plan.replicates // REPLICATE_BLOCK)
    workers = max(min(threads, n_blocks), 1)
    n_bytes = (plan.horizon + 1) * n_patterns * 8 * workers
    if n_bytes > 8 * STATE_CAP:
        raise CapExceededError(
            f"{workers} count accumulator(s) of {plan.horizon + 1} x {n_patterns} int64"
            f" need {n_bytes} bytes, over the cap of {8 * STATE_CAP}"
        )

    def worker(first: int) -> np.ndarray:
        stepper = _BlockStepper(plan)
        counts = np.zeros((plan.horizon + 1, n_patterns), dtype=np.int64)
        for b in range(first, n_blocks, workers):
            _block_counts(stepper, b, counts)
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


def tv_curve(counts: np.ndarray, replicates: int):
    """Per-time TV distance to uniform with delta-method standard errors,
    from window pattern counts of shape (horizon+1, |Sigma|^|A|)."""
    n_patterns = counts.shape[1]
    phat = counts / replicates
    dev = phat - 1.0 / n_patterns
    tv = 0.5 * np.abs(dev).sum(axis=1)
    m = (np.sign(dev) * phat).sum(axis=1)
    se = 0.5 * np.sqrt(np.clip(1.0 - m * m, 0.0, None) / replicates)
    return tv, se


def marginalize_counts(counts: np.ndarray, window: CellSet, sub: CellSet, size: int) -> np.ndarray:
    """Re-express pattern counts over `window` as counts over a sub-window.
    A name of its own because the benchmark tracer times it."""
    return marginalize_patterns(counts, window, sub, size)


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


def estimate_mixing_time(plans, counts, epsilon: float) -> MixingEstimate:
    """Mixing time of a shared observation window, maximizing the empirical
    distance over the plan family (a certified lower-bound family for the sup
    over all initial configurations).  counts[i] are plan i's window pattern
    counts, or their marginal on a sub-window of the plans' window."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    plans = list(plans)
    window = plans[0].window
    horizon = plans[0].horizon
    if any(p.window != window or p.horizon != horizon for p in plans):
        raise ValueError("plans must share window and horizon")
    if len(counts) != len(plans):
        raise ValueError("need one count array per plan")
    tv_se = np.array([tv_curve(c, p.replicates) for p, c in zip(plans, counts)])
    tv_all, se_all = tv_se[:, 0], tv_se[:, 1]
    curves = {f"{p.generator_label}#{p.stream}": np.column_stack(c) for p, c in zip(plans, tv_se)}
    worst = np.argmax(tv_all, axis=0)
    steps = np.arange(horizon + 1)
    dhat = tv_all[worst, steps]
    dhat_se = se_all[worst, steps]
    t_mix, converged = mixing_time((tv_all + 2.0 * se_all).max(axis=0), epsilon)
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
    window_sides = sorted(int(n) for n in window_sides)
    big = hypercube(window_sides[-1], dim)
    plans = adversarial_family(
        rule, noise, big, horizon, replicates, seed, n_random=n_random
    )
    big_counts = [window_pattern_counts(p, threads=threads) for p in plans]
    out = {}
    for n in window_sides:
        sub = hypercube(n, dim)
        counts = [marginalize_counts(c, big, sub, rule.alphabet.size) for c in big_counts]
        out[n] = estimate_mixing_time(plans, counts, epsilon)
    return out
