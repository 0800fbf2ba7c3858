"""Decision procedures for surjectivity and injectivity of one-dimensional CA
on the de Bruijn automaton.

Sparse neighbourhoods are normalized to a contiguous interval by padding the
table with dummy dependence; this leaves the global map unchanged.  Both
decisions are queries on one pair graph of the de Bruijn automaton, whose
bytes are checked against MEMORY_CAP before any of its arrays is built.
"""

from __future__ import annotations

import numpy as np

from .entropy import check_bytes
from .lattice import decode_patterns, pattern_strides
from .rules import LocalRule

__all__ = [
    "build_de_bruijn",
    "test_surjective",
    "test_injective",
    "is_balanced",
    "analyze_rule",
]

def _span(rule: LocalRule, min_span: int):
    """(offsets, lo, m): the rule's offsets, the least, and the length
    m = hi - lo + 1 >= min_span of the contiguous interval [lo, hi]."""
    if rule.dim != 1:
        raise ValueError("decision procedures require one-dimensional rules")
    offs = [a[0] for a in rule.neighborhood]
    return offs, min(offs), max(max(offs) - min(offs) + 1, min_span)


def contiguous_table(rule: LocalRule, min_span: int = 1):
    """Table of the rule re-expressed over the contiguous offset interval
    [lo, hi] (padded with dummy dependence where sparse).  Returns (lo, m,
    table) with m = hi - lo + 1 >= min_span."""
    offs, lo, m = _span(rule, min_span)
    size = rule.alphabet.size
    codes = np.arange(size ** m, dtype=np.int64)
    slots = decode_patterns(codes, m, size)
    sub = slots[:, [o - lo for o in offs]]
    idx = sub @ pattern_strides(len(offs), size)
    return lo, m, rule.table[idx]


def build_de_bruijn(rule: LocalRule) -> np.ndarray:
    """Edge labels of the rule's de Bruijn automaton, shape (states, |Sigma|).

    States are words of length m-1 (dense codes, first symbol most
    significant); the edge for the m-word w = u * |Sigma| + a runs from u to
    w % states and carries labels[u, a], the rule's output on w.
    """
    _, _, table = contiguous_table(rule, min_span=2)
    return table.reshape(-1, rule.alphabet.size)


def _pair_graph(rule: LocalRule):
    """Pair graph of the de Bruijn automaton: node u * n + v for each state
    pair, and an edge for each pair of equal-label words out of u and v.
    Returns the edge arrays (src, dst) and the diagonal mask."""
    _, _, m = _span(rule, 2)
    size = rule.alphabet.size
    # Each table entry labels size^(m - |N|) of the m-words, so the edge
    # count E = sum over labels of (m-words with that label)^2 is known
    # before the automaton exists.  Per candidate pair of m-words: the
    # equal-label mask and the int64 heads broadcast; per edge: its two
    # int64 ends, and the queries' masks and gathers on them.
    per_entry = size ** (m - len(rule.neighborhood))
    n_edges = sum((count * per_entry) ** 2 for count in np.bincount(rule.table).tolist())
    check_bytes(9 * size ** (2 * m) + 25 * n_edges, f"the pair graph of {size ** (m - 1)} de Bruijn states")
    labels = build_de_bruijn(rule)
    n = labels.shape[0]
    heads = np.arange(labels.size).reshape(n, size) % n
    # flat index of (u, v, a, b) for each pair of equal-label words
    # u * size + a and v * size + b; its pair node is u * n + v
    edges = np.flatnonzero(labels[:, None, :, None] == labels[None, :, None, :])
    dst = (heads[:, None, :, None] * n + heads[None, :, None, :]).reshape(-1)[edges]
    edges //= size**2
    diag = np.zeros(n * n, dtype=bool)
    diag[:: n + 1] = True
    return edges, dst, diag


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


def test_surjective(rule: LocalRule, graph=None) -> bool:
    """Surjectivity of the global map on Sigma^Z.

    Surjective iff the de Bruijn automaton has no diamond (Hedlund;
    Amoroso-Patt): no off-diagonal pair is both reachable from the diagonal
    and able to reach it.  The last diagonal pair before such a pair and the
    first one after it would bound a diamond.  `graph` is the rule's pair
    graph when the caller shares one; it is built when not given.
    """
    src, dst, diag = _pair_graph(rule) if graph is None else graph
    return not (_reach(src, dst, diag) & _reach(dst, src, diag) & ~diag).any()


def test_injective(rule: LocalRule, graph=None) -> bool:
    """Injectivity (equivalently reversibility) of the global map on Sigma^Z.

    Injective iff every pair on a bi-infinite path is diagonal: trimming
    repeatedly drops pairs with no live in-edge or no live out-edge, and the
    survivors must all lie on the diagonal.  `graph` is as for
    test_surjective; trimming marks nodes and never copies its edge arrays.
    """
    src, dst, diag = _pair_graph(rule) if graph is None else graph
    alive = np.ones(diag.size, dtype=bool)
    while True:
        live = alive[src] & alive[dst]
        trimmed = _marked(src[live], alive.size) & _marked(dst[live], alive.size)
        if np.array_equal(trimmed, alive):
            return not (alive & ~diag).any()
        alive = trimmed


def is_balanced(rule: LocalRule) -> bool:
    """Every output symbol appears equally often in the table (necessary for
    surjectivity)."""
    counts = np.bincount(rule.table, minlength=rule.alphabet.size)
    return bool((counts == len(rule.table) // rule.alphabet.size).all())


def analyze_rule(rule: LocalRule) -> dict:
    graph = _pair_graph(rule)
    return {
        "surjective": test_surjective(rule, graph),
        "injective": test_injective(rule, graph),
        "balanced": is_balanced(rule),
    }
