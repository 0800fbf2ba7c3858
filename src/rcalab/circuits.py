"""Finite reversible computer under noise: a time-inhomogeneous chain on
Sigma^A alternating bijective gate layers with per-site positive additive
noise.  Exact distribution evolution, the worst-case distance to uniform
and deficiency curves, and the decay bound check on those curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SLACK, BoundReport
from .entropy import WindowDistribution, check_bytes, entropy_rows
# not called here; kept because perfbench/tracer.py patches circuits.entropy_vec
from .entropy import entropy_vec  # noqa: F401
from .lattice import Alphabet, decode_patterns, hypercube
from .noise import NoiseModel, channel_matrix, convolve_sites, kappa, site_blocks
from .rng import CounterRng, LANE_SCHEDULE

__all__ = [
    "Translate",
    "ControlledAdd",
    "Swap",
    "Toffoli",
    "PermutationGate",
    "ReversibleNetwork",
    "evolve_chain_exact",
    "worst_case_curve",
    "check_finite_bound",
    "alternating_cnot_network",
    "network_from_json",
]

# worst_case_curve's exact/sampled threshold, its sampled initial count, and
# how many initials it evolves together at most
EXACT_STATES = 2 ** 20
SAMPLED_INITIALS = 256
CHAIN_BATCH = 64


@dataclass(frozen=True)
class Translate:
    """Site translation x -> x + amount (NOT on bits with amount 1)."""

    site: int
    amount: int

    @property
    def sites(self):
        return (self.site,)


@dataclass(frozen=True)
class ControlledAdd:
    """Controlled translation: target += control (CNOT on bits)."""

    control: int
    target: int

    @property
    def sites(self):
        return (self.control, self.target)


@dataclass(frozen=True)
class Swap:
    a: int
    b: int

    @property
    def sites(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class Toffoli:
    """Doubly-controlled translation: target += control1 * control2
    (cyclic alphabets only, where residue multiplication is defined)."""

    control1: int
    control2: int
    target: int

    @property
    def sites(self):
        return (self.control1, self.control2, self.target)


@dataclass(frozen=True, eq=False)
class PermutationGate:
    """Explicit permutation of Sigma^sites (validated at construction)."""

    gate_sites: tuple[int, ...]
    table: tuple[int, ...]

    def __init__(self, gate_sites, table):
        gate_sites = tuple(int(s) for s in gate_sites)
        table = tuple(int(v) for v in table)
        if sorted(table) != list(range(len(table))):
            raise ValueError("table is not a permutation")
        object.__setattr__(self, "gate_sites", gate_sites)
        object.__setattr__(self, "table", table)

    @property
    def sites(self):
        return self.gate_sites


def _gate_shifts(gate, network: ReversibleNetwork) -> np.ndarray:
    """The gate's shift of the state code for each pattern of its sites (first most significant)."""
    alphabet, k = network.alphabet, len(gate.sites)
    old = decode_patterns(np.arange(alphabet.size ** k), k, alphabet.size)
    new = old.copy()
    if isinstance(gate, Translate):
        new[:, 0] = alphabet.add(old[:, 0], gate.amount)
    elif isinstance(gate, ControlledAdd):
        new[:, 1] = alphabet.add(old[:, 1], old[:, 0])
    elif isinstance(gate, Swap):
        new = old[:, ::-1]
    elif isinstance(gate, Toffoli):
        new[:, 2] = alphabet.add(old[:, 2], old[:, 0] * old[:, 1] % alphabet.size)
    elif isinstance(gate, PermutationGate):
        new = decode_patterns(np.asarray(gate.table), k, alphabet.size)
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return (new - old) @ alphabet.size ** (network.n_sites - 1 - np.asarray(gate.sites))


@dataclass(frozen=True, eq=False)
class ReversibleNetwork:
    """Layers of gates on disjoint sites; each layer is a bijection of
    Sigma^A by construction.

    schedule: "cycle" repeats the layer list, "fixed" runs it once (steps
    beyond the list error out), ("random", seed) draws a layer per step from
    a counter-based stream; all reproducible.
    """

    n_sites: int
    alphabet: Alphabet
    layers: tuple
    schedule: object = "cycle"

    def __post_init__(self):
        layers = tuple(tuple(layer) for layer in self.layers)
        if not layers or any(not layer for layer in layers):
            raise ValueError("need at least one non-empty layer")
        for layer in layers:
            used = []
            for gate in layer:
                for s in gate.sites:
                    if not 0 <= s < self.n_sites:
                        raise ValueError(f"gate site {s} out of range")
                k = len(gate.sites)
                if isinstance(gate, PermutationGate) and len(gate.table) != self.alphabet.size**k:
                    raise ValueError(f"a permutation of {k} sites needs a table of {self.alphabet.size} ** {k} entries")
                if isinstance(gate, Toffoli) and len(self.alphabet.factors) != 1:
                    raise ValueError("Toffoli-style gates need a single cyclic factor")
                used.extend(gate.sites)
            if len(used) != len(set(used)):
                raise ValueError("gates within a layer must act on disjoint sites")
        object.__setattr__(self, "layers", layers)
        sched = self.schedule
        if isinstance(sched, (list, tuple)) and len(sched) == 2 and sched[0] == "random":
            object.__setattr__(self, "schedule", ("random", int(sched[1])))
        elif sched not in ("cycle", "fixed"):
            raise ValueError(f"unknown schedule {sched!r}")

    @property
    def n_states(self) -> int:
        return self.alphabet.size ** self.n_sites

    def layer_index_at(self, t: int) -> int:
        """Layer used for the step into time t (t >= 1)."""
        if t < 1:
            raise ValueError("steps are indexed from t = 1")
        if self.schedule == "cycle":
            return (t - 1) % len(self.layers)
        if self.schedule == "fixed":
            if t > len(self.layers):
                raise ValueError("fixed schedule exhausted")
            return t - 1
        _, seed = self.schedule
        rng = CounterRng(seed).block(LANE_SCHEDULE, t)
        return int(rng.integers(len(self.layers)))

    def layer_permutation(self, layer_index: int) -> np.ndarray:
        """Dense permutation P, x -> P[x]: a layer's gates act on disjoint sites, so each
        reads its sites' pattern off P as built and adds its shift (four arrays at most)."""
        check_bytes(32 * self.n_states, f"a layer permutation on {self.n_states} states")
        size, perm = self.alphabet.size, np.arange(self.n_states, dtype=np.int64)
        for gate in self.layers[layer_index]:
            sub = np.zeros_like(perm)
            for s in gate.sites:
                sub *= size
                sub += perm // size ** (self.n_sites - 1 - s) % size
            perm += _gate_shifts(gate, self)[sub]
        return perm


def _check_chain_law(dist: WindowDistribution, network: ReversibleNetwork):
    if dist.window != hypercube(network.n_sites) or dist.alphabet != network.alphabet:
        raise ValueError("chain law must live on hypercube(n_sites) over the network's alphabet")


def _noise_blocks(network: ReversibleNetwork, noise: NoiseModel) -> tuple:
    """site_blocks of the noise channel, built once per chain."""
    if noise.alphabet.factors != network.alphabet.factors:
        raise ValueError("noise and network alphabets differ")
    return site_blocks(channel_matrix(noise), network.n_sites)


def _chain_step(network, blocks, perms, step, probs, spare):
    """One step of the chain into time `step`: the scheduled layer, then the
    noise, on state-major laws held in two C-contiguous float64 buffers.
    probs holds the laws and is overwritten; returns (laws, spare), the same
    two buffers in the order of their new roles.  perms caches one dense
    permutation per layer index for the caller's whole run."""
    li = network.layer_index_at(step)
    if li not in perms:
        perms[li] = network.layer_permutation(li)
    # pushforward through x -> perm[x]: row x of probs becomes row perm[x]
    spare[perms[li]] = probs
    if convolve_sites(spare, blocks, network.n_sites, out=probs) is spare:
        return spare, probs
    return probs, spare


def evolve_chain_exact(
    dist: WindowDistribution,
    network: ReversibleNetwork,
    noise: NoiseModel,
    t: int,
    start: int = 0,
) -> WindowDistribution:
    """Law after t alternations of (scheduled layer, per-site noise), for a
    law on hypercube(n_sites) at time `start`: steps start+1..start+t."""
    _check_chain_law(dist, network)
    # the law, its spare, and a permutation per layer used, the last while built
    check_bytes(8 * network.n_states * (min(len(network.layers), t) + 5), "the chain")
    blocks, perms = _noise_blocks(network, noise), {}
    probs = np.array(dist.probs, dtype=np.float64)
    spare = np.empty_like(probs)
    for step in range(start + 1, start + t + 1):
        probs, spare = _chain_step(network, blocks, perms, step, probs, spare)
    return WindowDistribution(dist.window, dist.alphabet, probs)


def worst_case_curve(network: ReversibleNetwork, noise: NoiseModel, t_max: int):
    """Worst-case TV distance to uniform (and worst-case deficiency) for
    t = 0..t_max, with the mode that produced them.

    Mode "exact" maximizes over all point-mass initials; a network with more
    than EXACT_STATES states is maximized over SAMPLED_INITIALS random
    initials (seed 0) instead, mode "sampled-lower-bound", a lower bound on
    the sup.  The initials run through the whole horizon in batches, held
    state-major as the columns of one (n_states, batch) matrix: as many as
    fit in MEMORY_CAP, at least one, at most CHAIN_BATCH.  Each layer's
    permutation is built once per call, whatever the number of batches.
    """
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    k_states = network.n_states
    # ones, a permutation per layer used (the last while built), 3 arrays per batch column
    fixed, column = 8 * k_states * (min(len(network.layers), t_max) + 4), 24 * k_states
    width = min(CHAIN_BATCH, 1 + check_bytes(fixed + column, f"the chain on {k_states} states") // column)
    exact = k_states <= EXACT_STATES
    initials = range(k_states) if exact else np.random.default_rng(0).integers(0, k_states, SAMPLED_INITIALS)
    blocks, perms = _noise_blocks(network, noise), {}
    uniform, ones = 1.0 / k_states, np.ones(k_states)
    h_max_total = network.n_sites * network.alphabet.h_max
    d_curve = np.zeros(t_max + 1)
    xi_curve = np.zeros(t_max + 1)
    xi_curve[0] = h_max_total
    for lo in range(0, len(initials), width):
        batch_idx = np.asarray(initials[lo : lo + width])
        mat = np.zeros((k_states, batch_idx.size))
        mat[batch_idx, np.arange(batch_idx.size)] = 1.0
        # per-batch buffers: the laws and a spare for the chain step, and the
        # reductions' scratch
        spare, work = np.empty_like(mat), np.empty_like(mat)
        for t in range(t_max + 1):
            if t:
                mat, spare = _chain_step(network, blocks, perms, t, mat, spare)
                xi_curve[t] = max(xi_curve[t], h_max_total - entropy_rows(mat, work).min())
            # each law sums to 1, so its TV to uniform is sum(max(p, 1/N)) - 1,
            # the column sums taken as one matrix-vector product
            tv = (ones @ np.maximum(mat, uniform, out=work)).max() - 1.0
            d_curve[t] = max(d_curve[t], tv)
        del mat, spare, work  # before the next batch allocates its own
    return d_curve, xi_curve, ("exact" if exact else "sampled-lower-bound")


def check_finite_bound(network: ReversibleNetwork, noise: NoiseModel, curves) -> list[BoundReport]:
    """Decay bound d(t) <= sqrt(h_max/2) |A|^(1/2) (1-kappa)^(t/2), one report
    per t of curves, the (d_curve, xi_curve, mode) of worst_case_curve, with
    the entropy form Xi(X^t) <= (1-kappa)^t |A| h_max carried in params."""
    d_curve, xi_curve, mode = curves
    k, n, h = kappa(noise), network.n_sites, network.alphabet.h_max
    reports = []
    for t, (lhs, xi) in enumerate(zip(d_curve.tolist(), xi_curve.tolist())):
        rhs = math.sqrt(h / 2.0) * math.sqrt(n) * (1.0 - k) ** (t / 2.0)
        xi_bound = (1.0 - k) ** t * n * h
        params = {"n_sites": n, "t": t, "kappa": k, "mode": mode, "xi_max": xi, "xi_bound": xi_bound,
                  "xi_ok": xi <= xi_bound + SLACK}
        reports.append(BoundReport("finite-computer/decay", lhs, rhs, lhs <= rhs + SLACK, params))
    return reports


def alternating_cnot_network(n_bits: int, alphabet: Alphabet | None = None) -> ReversibleNetwork:
    """Brick-wall controlled-add network: layer A couples (0,1), (2,3), ...;
    layer B couples (1,2), (3,4), ... plus the wrap pair; cycled."""
    if n_bits < 2:
        raise ValueError("need at least two sites")
    alphabet = alphabet or Alphabet((2,))
    layer_a = [ControlledAdd(i, i + 1) for i in range(0, n_bits - 1, 2)]
    layer_b = [ControlledAdd(i, i + 1) for i in range(1, n_bits - 1, 2)]
    if n_bits % 2 == 0:
        layer_b.append(ControlledAdd(n_bits - 1, 0))
    return ReversibleNetwork(n_bits, alphabet, (tuple(layer_a), tuple(layer_b)), "cycle")


def network_from_json(doc: dict) -> ReversibleNetwork:
    alphabet = Alphabet(tuple(doc["alphabet"]))
    layers = []
    for layer in doc["layers"]:
        gates = []
        for item in layer:
            name = item["gate"]
            sites = item["sites"]
            params = item.get("params", {})
            if name == "translate":
                gates.append(Translate(sites[0], params["amount"]))
            elif name == "cadd":
                gates.append(ControlledAdd(sites[0], sites[1]))
            elif name == "swap":
                gates.append(Swap(sites[0], sites[1]))
            elif name == "toffoli":
                gates.append(Toffoli(sites[0], sites[1], sites[2]))
            elif name == "permutation":
                gates.append(PermutationGate(tuple(sites), tuple(params["table"])))
            else:
                raise ValueError(f"unknown gate kind {name!r}")
        layers.append(tuple(gates))
    schedule = doc.get("schedule", "cycle")
    if isinstance(schedule, list):
        schedule = tuple(schedule)
    return ReversibleNetwork(int(doc["sites"]), alphabet, tuple(layers), schedule)
