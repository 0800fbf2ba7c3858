"""Decision procedures for surjectivity and injectivity of one-dimensional CA
on the de Bruijn automaton, with a brute-force preimage-count oracle for
cross-validation.

Sparse neighbourhoods are normalized to a contiguous interval by padding the
table with dummy dependence; this leaves the global map unchanged.  Both
decisions are queries on one pair graph of the de Bruijn automaton.  The
supported envelope is 256 de Bruijn states: contiguous spans of up to 9 binary
cells (radius 4) or 6 ternary cells (radius 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import CapExceededError
from .lattice import decode_patterns, pattern_strides
from .rules import LocalRule

__all__ = [
    "DeBruijnAutomaton",
    "build_de_bruijn",
    "test_surjective",
    "test_injective",
    "preimage_count_oracle",
    "is_balanced",
    "analyze_rule",
]

ORACLE_ENUM_CAP = 2 ** 20


def _require_1d(rule: LocalRule):
    if rule.dim != 1:
        raise ValueError("decision procedures require one-dimensional rules")


def contiguous_table(rule: LocalRule, min_span: int = 1):
    """Table of the rule re-expressed over the contiguous offset interval
    [lo, hi] (padded with dummy dependence where sparse).  Returns (lo, m,
    table) with m = hi - lo + 1 >= min_span."""
    _require_1d(rule)
    offs = [a[0] for a in rule.neighborhood]
    lo, hi = min(offs), max(offs)
    m = max(hi - lo + 1, min_span)
    size = rule.alphabet.size
    codes = np.arange(size ** m, dtype=np.int64)
    slots = decode_patterns(codes, m, size)
    sub = slots[:, [o - lo for o in offs]]
    idx = sub @ pattern_strides(len(offs), size)
    return lo, m, rule.table[idx]


@dataclass(frozen=True, eq=False)
class DeBruijnAutomaton:
    """Overlap automaton of a contiguous 1D rule.

    States are words of length m-1 (dense codes, first symbol most
    significant); the edge for an m-word w runs from w // size to
    w % size^(m-1) and carries label table[w].
    """

    size: int
    m: int
    labels: np.ndarray  # labels[w] for every m-word code w

    @property
    def n_states(self) -> int:
        return self.size ** (self.m - 1)

    @property
    def n_edges(self) -> int:
        return self.size ** self.m


def build_de_bruijn(rule: LocalRule) -> DeBruijnAutomaton:
    _require_1d(rule)
    _, m, table = contiguous_table(rule, min_span=2)
    return DeBruijnAutomaton(rule.alphabet.size, m, table)


# de Bruijn states: a contiguous span of up to 9 binary cells (radius 4) or 6
# ternary cells (radius 2).  The pair graph has |states|^2 nodes with
# |Sigma|^2 candidate edges each, so this caps it near 65,536 nodes.
STATE_ENVELOPE = 256


def _check_envelope(auto: DeBruijnAutomaton):
    if auto.n_states > STATE_ENVELOPE:
        raise CapExceededError(
            f"{auto.n_states} de Bruijn states exceed the supported envelope"
            f" of {STATE_ENVELOPE}"
        )


def _pair_graph(rule: LocalRule):
    """Pair graph of the de Bruijn automaton: node u * n + v for each state
    pair, and an edge for each pair of equal-label words out of u and v.
    Returns the edge arrays (src, dst) and the diagonal mask."""
    auto = build_de_bruijn(rule)
    _check_envelope(auto)
    n = auto.n_states
    labels = auto.labels.reshape(n, auto.size)  # labels[u, a] of word u * size + a
    heads = np.arange(auto.n_edges).reshape(n, auto.size) % n
    u, v, a, b = np.nonzero(labels[:, None, :, None] == labels[None, :, None, :])
    diag = np.zeros(n * n, dtype=bool)
    diag[:: n + 1] = True
    return u * n + v, heads[u, a] * n + heads[v, b], diag


def _marked(nodes: np.ndarray, n_nodes: int) -> np.ndarray:
    mask = np.zeros(n_nodes, dtype=bool)
    mask[nodes] = True
    return mask


def _reach(src: np.ndarray, dst: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Nodes reachable from the `start` mask along edges src -> dst."""
    seen = start.copy()
    frontier = start
    while frontier.any():
        frontier = _marked(dst[frontier[src]], seen.size) & ~seen
        seen |= frontier
    return seen


def test_surjective(rule: LocalRule) -> bool:
    """Surjectivity of the global map on Sigma^Z.

    Surjective iff the de Bruijn automaton has no diamond (Hedlund;
    Amoroso-Patt): no off-diagonal pair is both reachable from the diagonal
    and able to reach it.  The last diagonal pair before such a pair and the
    first one after it would bound a diamond.
    """
    src, dst, diag = _pair_graph(rule)
    return not (_reach(src, dst, diag) & _reach(dst, src, diag) & ~diag).any()


def test_injective(rule: LocalRule) -> bool:
    """Injectivity (equivalently reversibility) of the global map on Sigma^Z.

    Injective iff every pair on a bi-infinite path is diagonal: trimming
    repeatedly drops pairs with no live in-edge or no live out-edge, and the
    survivors must all lie on the diagonal.
    """
    src, dst, diag = _pair_graph(rule)
    alive = np.ones(diag.size, dtype=bool)
    while True:
        live = alive[src] & alive[dst]
        src, dst = src[live], dst[live]
        trimmed = _marked(src, alive.size) & _marked(dst, alive.size)
        if np.array_equal(trimmed, alive):
            return not (alive & ~diag).any()
        alive = trimmed


def preimage_count_oracle(rule: LocalRule, w, enum_cap: int = ORACLE_ENUM_CAP) -> int:
    """Number of words of length |w| + m - 1 whose sliding image is w
    (brute-force ground truth; m is the raw contiguous span)."""
    _require_1d(rule)
    word = _as_word(rule, w)
    _, m, table = contiguous_table(rule)
    size = rule.alphabet.size
    length = len(word) + m - 1
    if size ** length > enum_cap:
        raise CapExceededError(
            f"{size}^{length} words exceed the enumeration cap {enum_cap}"
        )
    codes = np.arange(size ** length, dtype=np.int64)
    slots = decode_patterns(codes, length, size)
    strides = pattern_strides(m, size)
    match = np.ones(len(codes), dtype=bool)
    for i, target in enumerate(word):
        idx = slots[:, i : i + m] @ strides
        match &= table[idx] == target
    return int(match.sum())


def _as_word(rule: LocalRule, w):
    if isinstance(w, str):
        word = [int(ch) for ch in w]
    else:
        word = [int(v) for v in w]
    if not word:
        raise ValueError("word must be non-empty")
    if any(not 0 <= v < rule.alphabet.size for v in word):
        raise ValueError("word symbols out of alphabet range")
    return word


def is_balanced(rule: LocalRule) -> bool:
    """Every output symbol appears equally often in the table (necessary for
    surjectivity)."""
    counts = np.bincount(rule.table, minlength=rule.alphabet.size)
    return bool((counts == len(rule.table) // rule.alphabet.size).all())


def analyze_rule(rule: LocalRule) -> dict:
    return {
        "surjective": test_surjective(rule),
        "injective": test_injective(rule),
        "balanced": is_balanced(rule),
    }
