"""Trajectory sampling on tori, window pattern counts, and mixing-time
estimation for windows too large for exact enumeration.

Replicates are processed in fixed blocks of REPLICATE_BLOCK rows; every
draw comes from a Philox stream addressed by (seed, stream, lane, time,
block), so each replicate's trajectory is a pure function of
(seed, replicate-index) no matter how many replicates run or on how many
threads.  Each worker builds one generator per plan and moves it to each
draw's address with CounterRng.seek, which draws exactly what a generator
built there would.

A block-step draws one 64-bit word per cell of the whole torus, as the
address fixes, but steps only the cells whose state can still reach the
window: on a wrap-free plan the block is held on the window's light cone,
a box that shrinks by the rule's radius on every side at each step.  The
block is held cell-major, shape (*box, rows), in the alphabet's smallest
unsigned dtype, so every neighbour of the box is a plain slice made of
whole runs of rows.

The rule and the noise are fused into one table, step_table[z * |T| + code]
= perm_table[z, rule.table[code]] over the rule's |T| neighbourhood codes,
built once per plan and worker: the noise index z (noise.add_noise_index,
which compares the words with word thresholds), the neighbourhood codes
appended to it as low digits (rules.box_codes), and one lookup.

sample_trajectory, the engine's test oracle, shares only the initial
configuration and the Philox addresses with it: it steps the whole torus by
the reference primitives rules.apply_table and noise.apply_noise.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entropy import check_bytes, mixing_time
from .lattice import CellSet, diameter, hypercube, marginalize_patterns, pattern_strides
from .noise import NoiseModel, add_noise_index, apply_noise
from .rng import CounterRng, LANE_INIT, LANE_NOISE, REPLICATE_BLOCK, draw_words
from .rules import LocalRule, apply_table, box_codes, wrap_pad

# not called here since the block-step fuses rule and noise into one lookup;
# kept because perfbench/tracer.py patches montecarlo.sample_noise_symbols
from .noise import sample_noise_symbols  # noqa: F401

__all__ = [
    "GENERATORS",
    "SimulationPlan",
    "sample_trajectory",
    "window_pattern_counts",
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
        return min(self.sides) < _wrap_free_side(self.rule, self.window, self.horizon)

    @property
    def generator_label(self) -> str:
        if isinstance(self.generator, str):
            return self.generator
        return "pattern"


def _wrap_free_side(rule: LocalRule, window: CellSet, horizon: int) -> int:
    """The smallest torus side on which the window's dependence cone over
    horizon steps does not wrap."""
    return diameter(window) + 2 * rule.radius * horizon + 1


def _workers(plan: SimulationPlan, threads: int) -> int:
    """Worker threads of a count: at most one per block of replicates."""
    return max(min(threads, -(-plan.replicates // REPLICATE_BLOCK)), 1)


def _initial_torus(plan: SimulationPlan, rng: CounterRng, gen, block: int) -> np.ndarray:
    """X^0 of the block's rows on the whole torus, row-major (rows, *sides),
    in the alphabet's state dtype; a seeded-random start is drawn by gen at
    the block's LANE_INIT address."""
    rows = min(plan.replicates - block * REPLICATE_BLOCK, REPLICATE_BLOCK)
    shape = (rows,) + plan.sides
    dtype = plan.rule.alphabet.state_dtype
    if isinstance(plan.generator, np.ndarray):
        return np.broadcast_to(plan.generator.astype(dtype), shape)
    if plan.generator == "all-zeros":
        return np.broadcast_to(np.zeros((), dtype=dtype), shape)
    if plan.generator == "all-ones":
        return np.broadcast_to(np.ones((), dtype=dtype), shape)
    if plan.generator == "checkerboard":
        grids = np.meshgrid(*[np.arange(s) for s in plan.sides], indexing="ij")
        return np.broadcast_to((sum(grids) % 2).astype(dtype), shape)
    rng.seek(gen, LANE_INIT, 0, block)
    return gen.integers(0, plan.rule.alphabet.size, size=shape).astype(dtype)


def _cyclic_pieces(start: int, width: int, side: int) -> list[tuple[slice, slice]]:
    """The run [start, start + width) of a periodic axis (width <= side) as
    one or two (run slice, torus slice) pairs of plain slices."""
    a = start % side
    head = min(width, side - a)
    pieces = [(slice(0, head), slice(a, a + head))]
    if head < width:
        pieces.append((slice(head, width), slice(0, width - head)))
    return pieces


class _BlockStepper:
    """One worker's run of a plan: the fused step table, the box of cells
    stepped at each time with the window's place in it, built once, and the
    one generator that every draw of the plan moves by CounterRng.seek.

    A block is held cell-major, shape (*box, rows), so that every slice of it
    is a run of whole rows.  On a wrap-free plan the box at time t is the
    light cone of the window: its bounding box widened by
    radius * (horizon - t) on every axis, so the box at t - 1 holds exactly
    the neighbours of the box at t, and no cell outside the cone is stepped.
    On a wrap-contaminated plan (whole_torus) the box is the whole torus at
    every time, wrap-padded at each step.

    Draws fill rows in order, so the rows of a partial last block draw only
    their own prefix of the block's stream.
    """

    def __init__(self, plan: SimulationPlan):
        perm_table = plan.noise.perm_table
        self.plan = plan
        self.step_table = perm_table[:, plan.rule.table].ravel()
        self.code_dtype = np.min_scalar_type(self.step_table.size - 1)
        self.index_dtype = np.min_scalar_type(perm_table.shape[0] - 1)
        self.state_dtype = plan.rule.alphabet.state_dtype
        self.n_cells = int(np.prod(plan.sides))
        n_patterns = plan.rule.alphabet.size ** len(plan.window)
        # the smallest dtype for the window codes: einsum sums in it
        self.strides = pattern_strides(len(plan.window), plan.rule.alphabet.size).astype(
            np.min_scalar_type(n_patterns - 1)
        )
        self.whole_torus = plan.wrap_contaminated
        cells = plan.window.as_array()
        r, horizon = plan.rule.radius, plan.horizon
        if self.whole_torus:
            starts = [np.zeros(len(plan.sides), dtype=np.int64)] * (horizon + 1)
            self.boxes = [plan.sides] * (horizon + 1)
            cells = cells % plan.sides
        else:
            # the window's bounding box, widened by the cone's reach at t
            lo, span = cells.min(axis=0), np.ptp(cells, axis=0) + 1
            reach = [r * (horizon - t) for t in range(horizon + 1)]
            starts = [lo - g for g in reach]
            self.boxes = [tuple((span + 2 * g).tolist()) for g in reach]
        self.box_cells = [int(np.prod(box)) for box in self.boxes]
        # per time: the window's flat index in the box, and the box's pieces
        # of the torus as (box slice, torus slice) pairs
        self.cols = [np.ravel_multi_index((cells - a).T, box) for a, box in zip(starts, self.boxes)]
        self.pieces = [
            [tuple(zip(*p)) for p in itertools.product(*map(_cyclic_pieces, a, box, plan.sides))]
            for a, box in zip(starts, self.boxes)
        ]
        self.rng = CounterRng(plan.seed, plan.stream)
        self.gen = self.rng.block(LANE_NOISE)

    def buffer(self, rows: int, dtype, t: int) -> np.ndarray:
        """An uninitialised (*box, rows) array for time t, the prefix of a
        whole-torus allocation.  Every per-step array is allocated at the
        size it had before the light cone: glibc raises its mmap threshold
        to the largest block freed, and smaller cone-sized temporaries would
        then stay resident in the worker threads' malloc arenas."""
        box = self.boxes[t]
        return np.empty(rows * self.n_cells, dtype=dtype)[: rows * self.box_cells[t]].reshape(box + (rows,))

    def to_box(self, torus: np.ndarray, out: np.ndarray, t: int) -> np.ndarray:
        """Copy time t's box of torus, row-major (rows, *sides), into out,
        cell-major (*box, rows)."""
        rows_last = tuple(range(1, torus.ndim)) + (0,)
        for box_sl, torus_sl in self.pieces[t]:
            out[box_sl] = torus[(slice(None),) + torus_sl].transpose(rows_last)
        return out

    def initial(self, block: int) -> np.ndarray:
        """X^0 of the block's rows on the time-0 box, cell-major."""
        torus = _initial_torus(self.plan, self.rng, self.gen, block)
        return self.to_box(torus, self.buffer(len(torus), self.state_dtype, 0), 0)


def _step_block(stepper: _BlockStepper, data: np.ndarray, block: int, t: int) -> np.ndarray:
    """X^t of a block on time t's box from X^(t-1) on time t-1's, both
    cell-major: one draw of words, the noise index, the neighbourhood codes
    after it as low digits, and one fused lookup."""
    plan = stepper.plan
    rows = data.shape[-1]
    stepper.rng.seek(stepper.gen, LANE_NOISE, t, block)
    words = draw_words(stepper.gen, (rows,) + plan.sides)
    index = add_noise_index(plan.noise, words, np.zeros(words.shape, dtype=stepper.index_dtype))
    code = stepper.to_box(index, stepper.buffer(rows, stepper.code_dtype, t), t)
    del index
    if stepper.whole_torus:
        data = wrap_pad(data, plan.rule.radius, range(plan.rule.dim))
    box_codes(data, plan.rule, code)
    del data
    # take() would widen the codes to a new intp array; the spent words hold
    # it.  Every code is in range, and mode="clip", unlike "raise", writes
    # straight into out without a buffer of its size.
    flat = words.reshape(-1).view(np.intp)[: code.size]
    np.copyto(flat, code.reshape(-1))
    del code
    out = stepper.buffer(rows, stepper.state_dtype, t)
    stepper.step_table.take(flat, out=out.reshape(-1), mode="clip")
    return out


def sample_trajectory(plan: SimulationPlan, replicate: int) -> np.ndarray:
    """Full trajectory X^0..X^T of one replicate, int64 of shape
    (horizon + 1, *sides): the row this replicate occupies in a batched run,
    stepped on the whole torus by apply_table and apply_noise at the
    engine's Philox addresses, without the engine's block-step."""
    if not 0 <= replicate < plan.replicates:
        raise ValueError("replicate index out of range")
    block, row = divmod(replicate, REPLICATE_BLOCK)
    rng = CounterRng(plan.seed, plan.stream)
    gen = rng.block(LANE_NOISE)
    # draws fill rows in order, so the block's first row + 1 rows step alone
    x = _initial_torus(plan, rng, gen, block)[: row + 1].astype(np.int64)
    out = [x[row]]
    for t in range(1, plan.horizon + 1):
        rng.seek(gen, LANE_NOISE, t, block)
        x = apply_noise(apply_table(x, plan.rule, batch_dims=1), plan.noise, gen)
        out.append(x[row])
    return np.stack(out)


def _block_counts(stepper: _BlockStepper, block: int, counts: np.ndarray) -> None:
    """Add one block's window pattern counts into counts (shape (horizon+1,
    |Sigma|^|A|))."""
    data = stepper.initial(block)
    rows = data.shape[-1]
    for t in range(stepper.plan.horizon + 1):
        if t:
            data = _step_block(stepper, data, block, t)
        window = data.reshape(-1, rows)[stepper.cols[t]]
        codes = np.einsum("ji,j->i", window, stepper.strides)
        counts[t] += np.bincount(codes, minlength=counts.shape[1])


def _count_bytes(plan: SimulationPlan, threads: int) -> int:
    """Per worker: an accumulator, a bincount row and a block-step; and the
    workers' sum.

    A block-step's arrays are all whole-torus sized.  Per cell it holds the
    draw's word (8 bytes) and the previous state throughout, and in turn the
    noise index with the comparison mask, the index with the code, and the
    code with the new state; the mask (one byte) is never larger than the
    code.  A whole-torus step also holds two wrap-padded copies of the state
    while it pads."""
    workers = _workers(plan, threads)
    counts = 8 * (plan.horizon + 1) * plan.rule.alphabet.size ** len(plan.window)
    n_noise = plan.noise.perm_table.shape[0]
    code = np.min_scalar_type(n_noise * plan.rule.table.size - 1).itemsize
    index = np.min_scalar_type(n_noise - 1).itemsize
    state = plan.rule.alphabet.state_dtype.itemsize
    padded = np.prod(np.add(plan.sides, 2 * plan.rule.radius)) / np.prod(plan.sides)
    cell = 8 + state + code + max(index, state) + plan.wrap_contaminated * 2 * padded * state
    block = min(plan.replicates, REPLICATE_BLOCK) * np.prod(plan.sides) * cell
    return int(workers * (counts + counts // (plan.horizon + 1) + block) + (workers > 1) * counts)


def window_pattern_counts(plan: SimulationPlan, threads: int = 1) -> np.ndarray:
    """Pattern counts over the window, shape (horizon+1, |Sigma|^|A|).

    Each worker adds its blocks into one int64 accumulator of its own; the
    sums are integers, so the reduction is exact and thread-count-independent,
    and memory does not grow with the number of blocks.  What the workers
    hold is checked against MEMORY_CAP before any of it is allocated.
    """
    check_bytes(_count_bytes(plan, threads), "counting window patterns")
    n_patterns = plan.rule.alphabet.size ** len(plan.window)
    n_blocks = -(-plan.replicates // REPLICATE_BLOCK)
    workers = _workers(plan, threads)

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
    curves: dict = field(default_factory=dict)
    monotone_within_3sigma: bool = True


def estimate_mixing_time(plans, counts, epsilon: float) -> MixingEstimate:
    """Mixing time of a shared observation window, maximizing the empirical
    distance over the plan family (a certified lower-bound family for the sup
    over all initial configurations).  counts[i] are plan i's window pattern
    counts, or their marginal on a sub-window of the plans' window."""
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
    n_random: int = 8,
) -> list[SimulationPlan]:
    """Default initial-configuration family for distance-to-uniform sups:
    all-zeros, all-ones, checkerboard, and n_random seeded-random starts,
    each on its own stream, on the smallest torus free of wrap-around."""
    sides = (max(_wrap_free_side(rule, window, horizon), 2 * rule.radius + 1),) * rule.dim
    gens = ["all-zeros", "all-ones", "checkerboard"] + ["seeded-random"] * n_random
    return [
        SimulationPlan(rule, noise, sides, g, horizon, replicates, seed, window, stream=i)
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
    threads: int = 1,
    n_random: int = 8,
):
    """Mixing-time estimates for a family of nested hypercube windows S_n on
    the rule's lattice, sharing one batch of trajectories per generator
    (sub-window counts are exact marginalizations of the largest window's)."""
    window_sides = sorted(int(n) for n in window_sides)
    big = hypercube(window_sides[-1], rule.dim)
    plans = adversarial_family(
        rule, noise, big, horizon, replicates, seed, n_random=n_random
    )
    # a run, all counts and their marginals on one window, tv_curve's 4 arrays
    plan_bytes = 8 * (horizon + 1) * rule.alphabet.size ** len(big)
    check_bytes(_count_bytes(plans[0], threads) + (2 * len(plans) + 4) * plan_bytes, "the mixing scan")
    big_counts = [window_pattern_counts(p, threads=threads) for p in plans]
    out = {}
    for n in window_sides:
        sub = hypercube(n, rule.dim)
        out[n] = estimate_mixing_time(
            plans, [marginalize_counts(c, big, sub, rule.alphabet.size) for c in big_counts], epsilon
        )
    return out
