"""Constants and inequalities of the entropy argument: the noise-lemma
harness, equilibrium-time constants, the bootstrap packing layout with its
superadditivity check, the proof's rate constants, and the main bound
evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import WindowDistribution, check_bytes, deficiency, entropy_rows
# not called here; kept because perfbench/tracer.py patches bounds.entropy_vec
from .entropy import entropy_vec  # noqa: F401
from .lattice import Alphabet, CellSet, box_offsets, hypercube, translate
from .noise import NoiseModel, channel_matrix, kappa
from .rules import LocalRule

__all__ = [
    "SLACK",
    "BoundReport",
    "equilibrium_constants",
    "bootstrap_layout",
    "BootstrapLayout",
    "check_block_superadditivity",
    "main_theorem_bound",
    "theorem_applicable",
    "proof_rate_constants",
    "hypercube_leakage",
    "noise_lemma_suite",
    "noise_lemma_sides",
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
        return {"claim": self.claim, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok,
                "params": self.params}


def noise_lemma_sides(p, channels, kappas, variant: str):
    """The two sides of the noise lemma, the entropy gain from one round of
    iid noise N, for a batch of instances, as two arrays:

    scalar:      p over Sigma,      H(A+N)   >= kappa h_max + (1-kappa) H(A)
    joint:       p over Sigma^n,    H(A+N)   >= n kappa h_max + (1-kappa) H(A)
    conditional: p a joint (c, a) matrix, H(A+N|C) >= kappa h_max + (1-kappa) H(A|C)

    p stacks the laws, batch first (flat laws over Sigma^n for joint, (C, A)
    matrices for conditional), channels the per-instance channel matrices
    and kappas their kappa values.  Callers check the shapes."""
    size = channels.shape[-1]
    n = 1
    if variant == "scalar":
        noisy = np.matmul(p[:, None], channels)[:, 0]
    elif variant == "joint":
        n = round(math.log(p.shape[1], size))
        noisy = p
        for site in range(n):  # each instance's channel on one site axis at a time
            view = noisy.reshape(len(p), size ** site, size, -1)
            noisy = np.einsum("bxay,bac->bxcy", view, channels).reshape(len(p), -1)
    else:
        # the law of A given each C; a p_C = 0 row stays 0 and gets weight 0
        pc = p.sum(axis=2)
        p = p / np.where(pc > 0, pc, 1.0)[..., None]
        noisy = np.matmul(p, channels)
    entropies = [entropy_rows(np.moveaxis(laws, -1, 0)) for laws in (noisy, p)]
    if variant == "conditional":
        entropies = [np.einsum("bc,bc->b", pc, h) for h in entropies]
    lhs, h = entropies
    return lhs, n * kappas * math.log(size) + (1.0 - kappas) * h


def _lemma_report(variant: str, lhs, rhs, k: float, alphabet: Alphabet, n: int) -> BoundReport:
    return BoundReport(
        claim=f"noise-lemma/{variant}",
        lhs=lhs,
        rhs=rhs,
        ok=lhs >= rhs - SLACK,
        params={"kappa": k, "alphabet": list(alphabet.factors), "n": n},
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
    m = k (n + 2rt); packed() checks that the Moore extensions moore(Q_w, rt)
    are pairwise disjoint and contained in S_m."""

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
        moore(Q_w, rt) are pairwise disjoint inside S_m: no cell of S_m may
        lie in two of them."""
        rt = self.r * self.t
        if self.m != self.k * (self.n + 2 * rt) or len(self.blocks) != self.k ** self.d:
            return False
        cells = [q.as_array() for q in self.blocks]
        stacked = np.concatenate(cells)
        # the ball spans [-rt, rt]^d, so the fattened blocks stay in S_m iff
        # every block cell lies rt or more inside it
        if stacked.min() < rt or stacked.max() >= self.m - rt:
            return False
        strides = self.m ** np.arange(self.d)
        ball = (box_offsets(2 * rt + 1, self.d) - rt) @ strides
        # how many fattened blocks hold each cell of S_m, a block counting once
        # per cell (np.unique would import numpy.ma, 16 ms, on first use)
        held = sum(
            np.bincount(((c @ strides)[:, None] + ball).ravel(), minlength=self.m ** self.d) > 0
            for c in cells
        )
        return bool(held.max() <= 1)


def bootstrap_layout(n: int, k: int, r: int, t: int, d: int) -> BootstrapLayout:
    """The layout of k^d blocks of side n for radius r and time t; callers
    check layout.packed() where the packing matters."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if r < 0 or t < 0:
        raise ValueError("r and t must be non-negative")
    pitch = n + 2 * r * t
    base = hypercube(n, d, anchor=(r * t,) * d)
    blocks = tuple(translate(base, tuple(pitch * wi for wi in w)) for w in hypercube(k, d).cells)
    return BootstrapLayout(n, k, r, t, d, k * pitch, blocks)


def check_block_superadditivity(
    block: WindowDistribution,
    k: int,
    r: int = 0,
    t: int = 0,
    padding=None,
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
    if not layout.packed():
        raise AssertionError("moore(Q_w, rt) blocks leave S_m or overlap")
    big = layout.big_window()
    # the joint law and its reordered copy, or that and its entropy's logs
    check_bytes(2 * 8 * size ** len(big), f"the joint law on {len(big)} cells")
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
    assembled = WindowDistribution(big, block.alphabet, joint)

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
    """Bound value alpha e^{-beta t} n^{(d-1)/2}; alpha and beta are supplied,
    never fabricated."""
    if not (alpha > 0 and beta > 0):  # refuses NaN too
        raise ValueError("alpha and beta must be positive")
    return alpha * math.exp(-beta * t) * n ** ((d - 1) / 2.0)


def theorem_applicable(t: float, n: int, a: float, b: float) -> bool:
    """Companion predicate t >= a log n + b that gates the bound."""
    return t >= a * math.log(n) + b


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


def noise_lemma_suite(alphabets, n_instances: int, seed: int) -> list[BoundReport]:
    """Randomized property harness over all three lemma variants: Dirichlet
    inputs, strictly positive random q, joint laws on Sigma^n for n = 1..3
    and conditional laws with 3 conditioning states.

    Every instance of an alphabet is drawn first; each variant is then one
    noise_lemma_sides call (joint laws in one call per n), and the reports
    come out per instance: scalar, joint, conditional."""
    rng = np.random.default_rng(seed)
    reports = []
    if n_instances < 1:
        return reports
    for factors in alphabets:
        alphabet = Alphabet(tuple(factors))
        size = alphabet.size
        channels, kappas = np.empty((n_instances, size, size)), np.empty(n_instances)
        scalar, conditional = np.empty((n_instances, size)), np.empty((n_instances, 3, size))
        ns, joint = [], []
        for i in range(n_instances):
            q = rng.dirichlet(np.ones(size))
            q = (q + 1e-6) / (1.0 + size * 1e-6)  # keep strictly positive
            noise = NoiseModel(alphabet, "additive", q / q.sum())
            channels[i], kappas[i] = channel_matrix(noise), kappa(noise)
            scalar[i] = rng.dirichlet(np.ones(size))
            ns.append(int(rng.integers(1, 4)))
            joint.append(rng.dirichlet(np.ones(size ** ns[-1])))
            conditional[i] = rng.dirichlet(np.ones(3 * size)).reshape(3, size)
        joint_sides = np.empty((2, n_instances))
        for n in set(ns):
            group = [i for i, m in enumerate(ns) if m == n]
            laws = np.stack([joint[i] for i in group])
            joint_sides[:, group] = noise_lemma_sides(laws, channels[group], kappas[group], "joint")
        sides = {
            "scalar": noise_lemma_sides(scalar, channels, kappas, "scalar"),
            "joint": joint_sides,
            "conditional": noise_lemma_sides(conditional, channels, kappas, "conditional"),
        }
        for i, k in enumerate(kappas.tolist()):
            for variant, (lhs, rhs) in sides.items():
                n = ns[i] if variant == "joint" else 1
                reports.append(_lemma_report(variant, lhs[i], rhs[i], k, alphabet, n))
    return reports
