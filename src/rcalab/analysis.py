"""Decision procedures for surjectivity and injectivity of one-dimensional CA
via de Bruijn automaton constructions, with a brute-force preimage-count
oracle for cross-validation.

Sparse neighbourhoods are normalized to a contiguous interval by padding the
table with dummy dependence; this leaves the global map unchanged.  The
supported envelope is small contiguous spans (radius <= 2 binary, radius <= 1
ternary) where the subset construction stays tiny.
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

    def edge_endpoints(self, word_code: int):
        return word_code // self.size, word_code % self.n_states


def build_de_bruijn(rule: LocalRule) -> DeBruijnAutomaton:
    _require_1d(rule)
    _, m, table = contiguous_table(rule, min_span=2)
    return DeBruijnAutomaton(rule.alphabet.size, m, table)


STATE_ENVELOPE = 256  # de Bruijn states; covers radius <= 3 binary, radius <= 2 ternary


def _check_envelope(auto: DeBruijnAutomaton):
    if auto.n_states > STATE_ENVELOPE:
        raise CapExceededError(
            f"{auto.n_states} de Bruijn states exceed the supported envelope"
            f" of {STATE_ENVELOPE}"
        )


def test_surjective(rule: LocalRule) -> bool:
    """Surjectivity of the global map on Sigma^Z.

    Subset construction on the label-determinized de Bruijn automaton:
    surjective iff the empty state-set is unreachable from the full set
    (every finite word then has a preimage).
    """
    auto = build_de_bruijn(rule)
    _check_envelope(auto)
    size, n_states = auto.size, auto.n_states
    # succ_mask[label][state] = bitmask of successor states
    succ_mask = np.zeros((size, n_states), dtype=object)
    for s in range(n_states):
        for a in range(size):
            w = s * size + a
            succ_mask[auto.labels[w]][s] |= 1 << (w % n_states)
    full = (1 << n_states) - 1
    seen = {full}
    stack = [full]
    while stack:
        subset = stack.pop()
        for label in range(size):
            nxt = 0
            bits = subset
            while bits:
                s = (bits & -bits).bit_length() - 1
                nxt |= succ_mask[label][s]
                bits &= bits - 1
            if nxt == 0:
                return False
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def test_injective(rule: LocalRule) -> bool:
    """Injectivity (equivalently reversibility) of the global map on Sigma^Z.

    Pair-graph construction: product automaton of equal-label edge pairs,
    trimmed to states lying on bi-infinite paths (iteratively dropping states
    with no predecessor or no successor); injective iff every survivor is
    diagonal.
    """
    auto = build_de_bruijn(rule)
    _check_envelope(auto)
    size, n_states = auto.size, auto.n_states
    n_pairs = n_states * n_states
    edges_out: list[list[int]] = [[] for _ in range(n_pairs)]
    edges_in: list[list[int]] = [[] for _ in range(n_pairs)]
    for u in range(n_states):
        for v in range(n_states):
            pair = u * n_states + v
            for a in range(size):
                for b in range(size):
                    wu, wv = u * size + a, v * size + b
                    if auto.labels[wu] != auto.labels[wv]:
                        continue
                    tgt = (wu % n_states) * n_states + (wv % n_states)
                    edges_out[pair].append(tgt)
                    edges_in[tgt].append(pair)
    alive = [True] * n_pairs
    changed = True
    while changed:
        changed = False
        for p in range(n_pairs):
            if not alive[p]:
                continue
            if not any(alive[t] for t in edges_out[p]) or not any(
                alive[s] for s in edges_in[p]
            ):
                alive[p] = False
                changed = True
    for u in range(n_states):
        for v in range(n_states):
            if u != v and alive[u * n_states + v]:
                return False
    return True


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
