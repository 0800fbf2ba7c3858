"""Reference implementations that the tests compare the library against,
each computed by a path apart from the code it checks."""

import math

import numpy as np

from rcalab import entropy
from rcalab.analysis import contiguous_table
from rcalab.circuits import ControlledAdd, PermutationGate, Swap, Toffoli, Translate
from rcalab.entropy import entropy_vec
from rcalab.noise import channel_matrix, convolve_sites, kappa


def kl_divergence(p, q) -> float:
    """KL divergence D(p || q) in nats, apart from the deficiency path, so
    that deficiency(p) == KL(p || uniform) cross-checks both."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def preimage_count_oracle(rule, w) -> int:
    """Number of words of length |w| + m - 1 whose sliding image is w
    (brute-force ground truth for the decision procedures; m is the raw
    contiguous span)."""
    _, m, table = contiguous_table(rule)
    word = _as_word(rule, w)
    size = rule.alphabet.size
    length = len(word) + m - 1
    # per word: its code, a window code, that window's table entry, two masks
    entropy.check_bytes(26 * size ** length, f"enumerating the words of length {length}")
    codes = np.arange(size ** length, dtype=np.int64)
    match = np.ones(codes.size, dtype=bool)
    for i, target in enumerate(word):
        idx = codes // size ** (length - m - i)  # the m-window at symbol i
        idx %= size ** m
        match &= table[idx] == target
    return int(match.sum())


def _as_word(rule, w):
    word = [int(v) for v in w]  # a string's characters, or the symbols
    if not word:
        raise ValueError("word must be non-empty")
    if any(not 0 <= v < rule.alphabet.size for v in word):
        raise ValueError("word symbols out of alphabet range")
    return word


def noise_lemma_direct(p, noise, variant: str):
    """The two sides of the noise lemma for one instance, each entropy taken
    of the noisy law itself: H(p C) for scalar, H of the law convolve_sites
    noises for joint, and sum_c p_c H(p(.|c) C) for conditional."""
    channel, k, size = channel_matrix(noise), kappa(noise), noise.alphabet.size
    p = np.asarray(p, dtype=np.float64)
    if variant == "scalar":
        return entropy_vec(p @ channel), k * math.log(size) + (1 - k) * entropy_vec(p)
    if variant == "joint":
        n = round(math.log(p.size, size))
        lhs = entropy_vec(convolve_sites(p, channel, n))
        return lhs, n * k * math.log(size) + (1 - k) * entropy_vec(p)
    pc = p.sum(axis=1)
    laws = [row / w for row, w in zip(p, pc) if w > 0]
    weights = pc[pc > 0]
    lhs = sum(w * entropy_vec(law @ channel) for w, law in zip(weights, laws))
    h = sum(w * entropy_vec(law) for w, law in zip(weights, laws))
    return lhs, k * math.log(size) + (1 - k) * h


def chain_laws(network, noise, t_max: int) -> list:
    """The law at each t = 0..t_max from every point-mass initial, row x
    starting at state x: each gate applied to the decoded digits of each
    state (site 0 most significant, one cyclic factor), noise as the
    Kronecker power of the channel matrix, and a step as law @ layer @ noise."""
    size, shape = network.alphabet.size, (network.alphabet.size,) * network.n_sites
    if len(network.alphabet.factors) != 1:
        raise ValueError("the oracle takes one cyclic factor")
    digits = np.stack(np.unravel_index(np.arange(network.n_states), shape), axis=1)
    noise_matrix = np.ones((1, 1))
    for _ in shape:
        noise_matrix = np.kron(noise_matrix, channel_matrix(noise))
    laws = [np.eye(network.n_states)]
    for t in range(1, t_max + 1):
        layer = np.zeros((network.n_states, network.n_states))
        for x, state in enumerate(digits.tolist()):
            for gate in network.layers[network.layer_index_at(t)]:
                state = _apply_gate(gate, state, size)
            layer[x, np.ravel_multi_index(state, shape)] = 1.0
        laws.append(laws[-1] @ layer @ noise_matrix)
    return laws


def _apply_gate(gate, state, size):
    state = list(state)
    if isinstance(gate, Translate):
        state[gate.site] = (state[gate.site] + gate.amount) % size
    elif isinstance(gate, ControlledAdd):
        state[gate.target] = (state[gate.target] + state[gate.control]) % size
    elif isinstance(gate, Swap):
        state[gate.a], state[gate.b] = state[gate.b], state[gate.a]
    elif isinstance(gate, Toffoli):
        state[gate.target] = (state[gate.target] + state[gate.control1] * state[gate.control2]) % size
    elif isinstance(gate, PermutationGate):
        # the table maps the pattern of the gate's sites, first most significant
        pattern_shape = (size,) * len(gate.gate_sites)
        pattern = np.ravel_multi_index([state[s] for s in gate.gate_sites], pattern_shape)
        for s, v in zip(gate.gate_sites, np.unravel_index(gate.table[pattern], pattern_shape)):
            state[s] = int(v)
    else:
        raise TypeError(f"no oracle for {gate!r}")
    return state
