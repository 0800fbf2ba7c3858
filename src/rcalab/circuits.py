"""Finite reversible computer under noise: a time-inhomogeneous chain on
Sigma^A alternating bijective gate layers with per-site positive additive
noise.  Exact distribution evolution, worst-case distance to uniform, mixing
time, and the decay bound check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SLACK, BoundReport
from .entropy import STATE_CAP, WindowDistribution, check_cap, entropy_rows, mixing_time
# not called here; kept because perfbench/tracer.py patches circuits.entropy_vec
from .entropy import entropy_vec  # noqa: F401
from .lattice import Alphabet, decode_patterns, encode_patterns, hypercube
from .noise import NoiseModel, channel_matrix, convolve_sites, kappa
from .rng import CounterRng, LANE_SCHEDULE

__all__ = [
    "Translate",
    "ControlledAdd",
    "Swap",
    "Toffoli",
    "PermutationGate",
    "ReversibleNetwork",
    "apply_layer",
    "evolve_chain_exact",
    "worst_case_curve",
    "worst_case_distance",
    "chain_mixing_time",
    "ChainMixing",
    "finite_bound_rhs",
    "check_finite_bound",
    "alternating_cnot_network",
    "network_to_json",
    "network_from_json",
]


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


def _apply_gate_columns(gate, cols: np.ndarray, alphabet: Alphabet):
    """Apply one gate in place to a (n_states, n_sites) symbol matrix."""
    if isinstance(gate, Translate):
        cols[:, gate.site] = alphabet.add(cols[:, gate.site], gate.amount)
    elif isinstance(gate, ControlledAdd):
        cols[:, gate.target] = alphabet.add(cols[:, gate.target], cols[:, gate.control])
    elif isinstance(gate, Swap):
        cols[:, [gate.a, gate.b]] = cols[:, [gate.b, gate.a]]
    elif isinstance(gate, Toffoli):
        if len(alphabet.factors) != 1:
            raise ValueError("Toffoli-style gates need a single cyclic factor")
        prod = (cols[:, gate.control1] * cols[:, gate.control2]) % alphabet.size
        cols[:, gate.target] = alphabet.add(cols[:, gate.target], prod)
    elif isinstance(gate, PermutationGate):
        sub = encode_patterns(cols[:, list(gate.gate_sites)], alphabet.size)
        mapped = np.asarray(gate.table, dtype=np.int64)[sub]
        cols[:, list(gate.gate_sites)] = decode_patterns(
            mapped, len(gate.gate_sites), alphabet.size
        )
    else:
        raise TypeError(f"unknown gate {gate!r}")


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

    def layer_permutation(self, layer_index: int, cap: int | None = None) -> np.ndarray:
        """Dense permutation P with state x mapping to P[x]."""
        check_cap(self.n_states, cap)
        cols = decode_patterns(
            np.arange(self.n_states, dtype=np.int64), self.n_sites, self.alphabet.size
        )
        for gate in self.layers[layer_index]:
            _apply_gate_columns(gate, cols, self.alphabet)
        perm = encode_patterns(cols, self.alphabet.size)
        return perm


def _permute_rows(mat: np.ndarray, perm: np.ndarray) -> np.ndarray:
    # pushforward through x -> perm[x]: new[perm[j]] = old[j]
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return np.take(mat, inverse, axis=-1)


def _check_chain_law(dist: WindowDistribution, network: ReversibleNetwork):
    if dist.window != hypercube(network.n_sites) or dist.alphabet != network.alphabet:
        raise ValueError("chain law must live on hypercube(n_sites) over the network's alphabet")


def apply_layer(
    dist: WindowDistribution, network: ReversibleNetwork, layer_index: int
) -> WindowDistribution:
    """Push a law on hypercube(n_sites) through one bijective layer (entropy
    is exactly preserved)."""
    _check_chain_law(dist, network)
    perm = network.layer_permutation(layer_index)
    probs = _permute_rows(dist.probs[None, :], perm)[0]
    return WindowDistribution(dist.window, dist.alphabet, probs)


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
    if noise.alphabet.factors != network.alphabet.factors:
        raise ValueError("noise and network alphabets differ")
    channel = channel_matrix(noise)
    probs = dist.probs[None, :].copy()
    for step in range(start + 1, start + t + 1):
        perm = network.layer_permutation(network.layer_index_at(step))
        probs = _permute_rows(probs, perm)
        probs = convolve_sites(probs, channel, network.n_sites)
    return WindowDistribution(dist.window, dist.alphabet, probs[0])


def worst_case_curve(
    network: ReversibleNetwork,
    noise: NoiseModel,
    t_max: int,
    exact_cap: int = 2 ** 20,
    sample_size: int = 256,
    seed: int = 0,
):
    """Worst-case TV distance to uniform (and worst-case deficiency) for
    t = 0..t_max.

    Exact mode maximizes over all point-mass initials; above exact_cap it
    falls back to sampled-sup over `sample_size` random initials, which is
    only a lower bound and is flagged in the result.  Initials are evolved in
    chunks of at most STATE_CAP probabilities.
    """
    k_states = network.n_states
    exact = k_states <= exact_cap
    if exact:
        initials = np.arange(k_states, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        initials = rng.integers(0, k_states, size=min(sample_size, k_states))
    channel = channel_matrix(noise)
    uniform = 1.0 / k_states
    h_max_total = network.n_sites * network.alphabet.h_max
    perms = {}
    d_curve = np.zeros(t_max + 1)
    xi_curve = np.zeros(t_max + 1)
    chunk = max(1, STATE_CAP // k_states)
    for lo in range(0, initials.size, chunk):
        batch_idx = initials[lo : lo + chunk]
        mat = np.zeros((batch_idx.size, k_states))
        mat[np.arange(batch_idx.size), batch_idx] = 1.0
        tv0 = 0.5 * np.abs(mat - uniform).sum(axis=1).max()
        d_curve[0] = max(d_curve[0], tv0)
        xi_curve[0] = h_max_total
        for t in range(1, t_max + 1):
            li = network.layer_index_at(t)
            if li not in perms:
                perms[li] = network.layer_permutation(li)
            mat = _permute_rows(mat, perms[li])
            mat = convolve_sites(mat, channel, network.n_sites)
            d_curve[t] = max(d_curve[t], 0.5 * np.abs(mat - uniform).sum(axis=1).max())
            xi_curve[t] = max(xi_curve[t], h_max_total - entropy_rows(mat).min())
    return d_curve, xi_curve, ("exact" if exact else "sampled-lower-bound")


def worst_case_distance(
    network: ReversibleNetwork, noise: NoiseModel, t: int, exact_cap: int = 2 ** 20
):
    """Max over point-mass initials of TV(law at t, uniform); returns
    (value, mode)."""
    d_curve, _, mode = worst_case_curve(network, noise, t, exact_cap=exact_cap)
    return float(d_curve[t]), mode


@dataclass
class ChainMixing:
    epsilon: float
    t_mix: int
    converged: bool
    mode: str
    d_curve: np.ndarray


def chain_mixing_time(
    network: ReversibleNetwork,
    noise: NoiseModel,
    epsilon: float,
    horizon: int = 512,
    exact_cap: int = 2 ** 20,
) -> ChainMixing:
    """Smallest t with worst-case distance <= epsilon; when the horizon runs
    out, converged=False and t_mix holds the lower bound horizon + 1."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    d_curve, _, mode = worst_case_curve(network, noise, horizon, exact_cap=exact_cap)
    t_mix, converged = mixing_time(d_curve, epsilon)
    return ChainMixing(epsilon, t_mix, converged, mode, d_curve)


def finite_bound_rhs(network: ReversibleNetwork, noise: NoiseModel, t: int) -> float:
    """Right side sqrt(h_max/2) |A|^(1/2) (1-kappa)^(t/2) of the decay bound
    on the worst-case distance d(t)."""
    h, n = network.alphabet.h_max, network.n_sites
    return math.sqrt(h / 2.0) * math.sqrt(n) * (1.0 - kappa(noise)) ** (t / 2.0)


def check_finite_bound(
    network: ReversibleNetwork, noise: NoiseModel, t: int, exact_cap: int = 2 ** 20
) -> BoundReport:
    """Decay bound d(t) <= sqrt(h_max/2) |A|^(1/2) (1-kappa)^(t/2), with the
    entropy form Xi(X^t) <= (1-kappa)^t |A| h_max carried in params."""
    d_curve, xi_curve, mode = worst_case_curve(network, noise, t, exact_cap=exact_cap)
    k, n = kappa(noise), network.n_sites
    lhs, rhs = float(d_curve[t]), finite_bound_rhs(network, noise, t)
    xi_bound = (1.0 - k) ** t * n * network.alphabet.h_max
    return BoundReport(
        claim="finite-computer/decay",
        lhs=lhs,
        rhs=rhs,
        ok=lhs <= rhs + SLACK,
        params={
            "n_sites": n,
            "t": t,
            "kappa": k,
            "mode": mode,
            "xi_max": float(xi_curve[t]),
            "xi_bound": xi_bound,
            "xi_ok": bool(xi_curve[t] <= xi_bound + SLACK),
        },
    )


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


def network_to_json(network: ReversibleNetwork) -> dict:
    layers = []
    for layer in network.layers:
        items = []
        for gate in layer:
            if isinstance(gate, Translate):
                items.append({"gate": "translate", "sites": [gate.site], "params": {"amount": gate.amount}})
            elif isinstance(gate, ControlledAdd):
                items.append({"gate": "cadd", "sites": [gate.control, gate.target]})
            elif isinstance(gate, Swap):
                items.append({"gate": "swap", "sites": [gate.a, gate.b]})
            elif isinstance(gate, Toffoli):
                items.append({"gate": "toffoli", "sites": [gate.control1, gate.control2, gate.target]})
            else:
                items.append({"gate": "permutation", "sites": list(gate.gate_sites), "params": {"table": list(gate.table)}})
        layers.append(items)
    schedule = network.schedule
    if isinstance(schedule, tuple):
        schedule = list(schedule)
    return {
        "sites": network.n_sites,
        "alphabet": list(network.alphabet.factors),
        "layers": layers,
        "schedule": schedule,
    }


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
