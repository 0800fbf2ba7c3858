"""Constants and inequalities of the entropy argument: the noise-lemma
harness, equilibrium-time constants, the bootstrap packing layout with its
superadditivity check, decay-constant fitting, and the main bound evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import WindowDistribution, check_cap, deficiency, entropy_vec
from .lattice import Alphabet, CellSet, hypercube, translate
from .noise import NoiseModel, channel_matrix, convolve_sites, kappa
from .rules import LocalRule

__all__ = [
    "SLACK",
    "BoundReport",
    "check_noise_lemma",
    "equilibrium_constants",
    "bootstrap_layout",
    "BootstrapLayout",
    "check_block_superadditivity",
    "main_theorem_bound",
    "theorem_applicable",
    "fit_decay_constants",
    "DecayFit",
    "proof_rate_constants",
    "hypercube_leakage",
    "noise_lemma_suite",
]

SLACK = 1e-9


@dataclass
class BoundReport:
    """One verified inequality: ok iff the stated direction holds within the
    1e-9 slack."""

    claim: str
    lhs: float
    rhs: float
    ok: bool
    params: dict = field(default_factory=dict)
    caveat: str = ""

    def __post_init__(self):
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.ok = bool(self.ok)
        self.params = {
            k: (float(v) if isinstance(v, (np.floating,)) else
                int(v) if isinstance(v, (np.integer,)) else
                bool(v) if isinstance(v, (np.bool_,)) else v)
            for k, v in self.params.items()
        }

    def to_dict(self) -> dict:
        doc = {"claim": self.claim, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok,
               "params": self.params}
        return {**doc, "caveat": self.caveat} if self.caveat else doc


def check_noise_lemma(p, noise: NoiseModel, variant: str = "scalar") -> BoundReport:
    """Entropy gain from one round of iid noise.

    scalar:      p over Sigma,      H(A+N)   >= kappa h_max + (1-kappa) H(A)
    joint:       p over Sigma^n,    H(A+N)   >= n kappa h_max + (1-kappa) H(A)
    conditional: p a joint (c, a) matrix, H(A+N|C) >= kappa h_max + (1-kappa) H(A|C)
    """
    size = noise.alphabet.size
    h_max = noise.alphabet.h_max
    k = kappa(noise)
    channel = channel_matrix(noise)
    p = np.asarray(p, dtype=np.float64)
    if variant == "scalar":
        if p.shape != (size,):
            raise ValueError("scalar variant needs a distribution over Sigma")
        lhs = entropy_vec(p @ channel)
        rhs = k * h_max + (1.0 - k) * entropy_vec(p)
        n = 1
    elif variant == "joint":
        n = round(math.log(p.size, size))
        if size ** n != p.size or p.ndim != 1:
            raise ValueError("joint variant needs a flat distribution over Sigma^n")
        noisy = convolve_sites(p, channel, n)
        lhs = entropy_vec(noisy)
        rhs = n * k * h_max + (1.0 - k) * entropy_vec(p)
    elif variant == "conditional":
        if p.ndim != 2 or p.shape[1] != size:
            raise ValueError("conditional variant needs a joint (C, A) matrix")
        pc = p.sum(axis=1)
        h_cond = sum(
            pc[i] * entropy_vec(p[i] / pc[i]) for i in range(p.shape[0]) if pc[i] > 0
        )
        h_cond_noisy = sum(
            pc[i] * entropy_vec((p[i] / pc[i]) @ channel)
            for i in range(p.shape[0])
            if pc[i] > 0
        )
        lhs = h_cond_noisy
        rhs = k * h_max + (1.0 - k) * h_cond
        n = 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return BoundReport(
        claim=f"noise-lemma/{variant}",
        lhs=lhs,
        rhs=rhs,
        ok=lhs >= rhs - SLACK,
        params={"kappa": k, "alphabet": list(noise.alphabet.factors), "n": n},
    )


def equilibrium_constants(noise: NoiseModel):
    """(a0, b0) with a0 = -1/log(1-kappa), b0 = -log(h_max)/log(1-kappa);
    uniform noise (kappa = 1) returns (0, 0) by limit convention."""
    k = kappa(noise)
    if k >= 1.0:
        return 0.0, 0.0
    log1mk = math.log(1.0 - k)
    return -1.0 / log1mk, -math.log(noise.alphabet.h_max) / log1mk


def hypercube_leakage(n: int, d: int, r: int, h_max: float, k: float):
    """Closed-form leakage constants for hypercube windows:
    |boundary of moore(S_n, rho)| = (n + 2 rho)^d - n^d."""
    c = ((n + 4 * r) ** d - n ** d + (n + 2 * r) ** d - n ** d) * h_max
    return c, (1.0 - k) / k * c


@dataclass(frozen=True)
class BootstrapLayout:
    """Packing of k^d blocks Q_w = (n+2rt) w + [rt, rt+n-1]^d inside S_m with
    m = k (n + 2rt); the Moore extensions moore(Q_w, rt) are pairwise disjoint
    and contained in S_m (asserted at construction)."""

    n: int
    k: int
    r: int
    t: int
    d: int
    m: int
    blocks: tuple[CellSet, ...]

    def big_window(self) -> CellSet:
        return hypercube(self.m, self.d)

    def packed(self) -> bool:
        """m = k (n + 2rt), there are k^d blocks, and the fattened blocks
        moore(Q_w, rt) are pairwise disjoint inside S_m."""
        rt = self.r * self.t
        if self.m != self.k * (self.n + 2 * rt) or len(self.blocks) != self.k ** self.d:
            return False
        ball = hypercube(2 * rt + 1, self.d, anchor=(-rt,) * self.d).as_array()
        fat = [(q.as_array()[:, None] + ball).reshape(-1, self.d) for q in self.blocks]
        if not all(((f >= 0) & (f < self.m)).all() for f in fat):
            return False
        # cells of S_m as integers; each fattened block counts each cell once
        codes = np.concatenate([np.unique(f @ self.m ** np.arange(self.d)) for f in fat])
        return np.unique(codes).size == codes.size


def bootstrap_layout(n: int, k: int, r: int, t: int, d: int) -> BootstrapLayout:
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if r < 0 or t < 0:
        raise ValueError("r and t must be non-negative")
    pitch = n + 2 * r * t
    base = hypercube(n, d, anchor=(r * t,) * d)
    blocks = tuple(translate(base, tuple(pitch * wi for wi in w)) for w in hypercube(k, d).cells)
    layout = BootstrapLayout(n, k, r, t, d, k * pitch, blocks)
    if not layout.packed():
        raise AssertionError("moore(Q_w, rt) blocks leave S_m or overlap")
    return layout


def check_block_superadditivity(
    block: WindowDistribution,
    k: int,
    r: int = 0,
    t: int = 0,
    padding=None,
    cap: int | None = None,
) -> BoundReport:
    """Assemble k^d independent copies of the block law at the bootstrap
    positions (padding cells iid, uniform by default) and verify the exact
    deficiency inequality Xi(assembled on S_m) >= k^d Xi(block)."""
    d = block.window.dim
    n = int(round(len(block.window) ** (1.0 / d)))
    if hypercube(n, d) != block.window:
        raise ValueError("block law must live on a hypercube S_n anchored at 0")
    size = block.alphabet.size
    layout = bootstrap_layout(n, k, r, t, d)
    big = layout.big_window()
    check_cap(size ** len(big), cap)
    if padding is None:
        padding = np.full(size, 1.0 / size)
    padding = np.asarray(padding, dtype=np.float64)
    block_cells = set()
    for q in layout.blocks:
        block_cells |= set(q.cells)

    # Assemble as an outer product (blocks first, then padding cells), then
    # permute axes into the canonical cell order of S_m.
    tensors = []
    axis_cells = []
    n_cells = len(block.window)
    for q in layout.blocks:
        tensors.append(block.probs.reshape((size,) * n_cells))
        axis_cells.extend(q.cells)
    pad_cells = [c for c in big.cells if c not in block_cells]
    for c in pad_cells:
        tensors.append(padding)
        axis_cells.append(c)
    joint = tensors[0]
    for tns in tensors[1:]:
        joint = np.multiply.outer(joint, tns)
    order = [axis_cells.index(c) for c in big.cells]
    joint = np.transpose(joint, order).reshape(-1)
    assembled = WindowDistribution(big, block.alphabet, joint, cap=cap)

    lhs = deficiency(assembled)
    rhs = (k ** d) * deficiency(block)
    return BoundReport(
        claim="bootstrap/superadditivity",
        lhs=lhs,
        rhs=rhs,
        ok=lhs >= rhs - SLACK,
        params={"n": n, "k": k, "r": r, "t": t, "d": d, "m": layout.m},
    )


def main_theorem_bound(n: int, t: float, alpha: float, beta: float, d: int) -> float:
    """Bound value alpha e^{-beta t} n^{(d-1)/2}; alpha and beta are supplied
    or fitted, never fabricated."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    return alpha * math.exp(-beta * t) * n ** ((d - 1) / 2.0)


def theorem_applicable(t: float, n: int, a: float, b: float) -> bool:
    """Companion predicate t >= a log n + b that gates the bound."""
    return t >= a * math.log(n) + b


@dataclass
class DecayFit:
    alpha: float
    beta: float
    ok: bool
    n_used: int
    residual_rms: float


def fit_decay_constants(curve) -> DecayFit:
    """Least-squares fit of log(values) = log(alpha) - beta t; non-positive
    values are dropped, at least 3 points must survive."""
    pts = [(float(t), float(v)) for t, v in curve if v > 0]
    if len(pts) < 3:
        raise ValueError("need at least 3 positive points to fit a decay")
    ts = np.array([p[0] for p in pts])
    logs = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(ts, logs, 1)
    resid = logs - (slope * ts + intercept)
    beta = -float(slope)
    return DecayFit(
        alpha=float(np.exp(intercept)),
        beta=beta,
        ok=beta > 0,
        n_used=len(pts),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
    )


def proof_rate_constants(
    rule: LocalRule, noise: NoiseModel, n_max: int = 512
):
    """Smallest (a1, b1, c1) with tau(n) = a1 log n + b1 dominating the
    equilibrium time of S_n and delta(n) = c1 n^(d-1) dominating
    2 c_tilde(S_n) for every n, verified on n <= n_max plus the analytic
    n -> inf limits.

    a1 is pinned at the asymptotic slope a0: c_tilde(S_n)/n^(d-1) decreases
    to 6 r d ((1-kappa)/kappa) h_max, so the gap g(n) - a0 log n rises to a
    finite limit and the supremum is max(range, limit).  The tail check
    verifies the expected monotone approach.
    """
    d = rule.dim
    r = rule.radius
    if r == 0:
        raise ValueError("boundary constants vanish for radius-0 rules")
    a0, b0 = equilibrium_constants(noise)
    k = kappa(noise)
    h = rule.alphabet.h_max
    a1 = a0
    gaps = []
    ratios = []
    for n in range(1, n_max + 1):
        _, c_tilde = hypercube_leakage(n, d, r, h, k)
        g = a0 * math.log(n ** d / c_tilde) + b0
        gaps.append(g - a1 * math.log(n))
        ratios.append(2.0 * c_tilde / n ** (d - 1))
    c_lim = (1.0 - k) / k * h * 6.0 * r * d
    gap_limit = -a0 * math.log(c_lim) + b0
    b1 = max(max(gaps), gap_limit)
    c1 = max(max(ratios), 2.0 * c_lim)
    tail = gaps[n_max // 2 :]
    rising = all(tail[i + 1] >= tail[i] - 1e-9 for i in range(len(tail) - 1))
    if not (rising and tail[-1] <= gap_limit + 1e-9):
        raise ValueError("tail dominance check failed; raise n_max")
    return a1, b1, c1


def noise_lemma_suite(
    alphabets,
    n_instances: int,
    seed: int,
    joint_max: int = 3,
    cond_states: int = 3,
) -> list[BoundReport]:
    """Randomized property harness over all three lemma variants: Dirichlet
    inputs, strictly positive random q."""
    rng = np.random.default_rng(seed)
    reports = []
    alphabets = [Alphabet(tuple(f)) for f in alphabets]
    for alphabet in alphabets:
        size = alphabet.size
        for _ in range(n_instances):
            q = rng.dirichlet(np.ones(size))
            q = (q + 1e-6) / (1.0 + size * 1e-6)  # keep strictly positive
            noise = NoiseModel(alphabet, "additive", q / q.sum())
            p = rng.dirichlet(np.ones(size))
            reports.append(check_noise_lemma(p, noise, "scalar"))
            n = int(rng.integers(1, joint_max + 1))
            pj = rng.dirichlet(np.ones(size ** n))
            reports.append(check_noise_lemma(pj, noise, "joint"))
            pc = rng.dirichlet(np.ones(cond_states * size)).reshape(cond_states, size)
            reports.append(check_noise_lemma(pc, noise, "conditional"))
    return reports
