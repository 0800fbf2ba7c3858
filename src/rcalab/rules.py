"""Deterministic CA machinery: local rules, torus configurations, synchronous
global-map steps, built-in rule families, and rule (de)serialization.

Rule tables are dense arrays indexed by the mixed-radix encoding of the
neighbourhood pattern (offsets in lexicographic order, first offset most
significant).  With that convention the elementary-rule table is literally the
binary expansion of the Wolfram code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Alphabet, _normalize_cell, decode_patterns, pattern_strides

__all__ = [
    "LocalRule",
    "TorusConfiguration",
    "apply_rule",
    "build_elementary",
    "build_linear",
    "lift_second_order",
    "rule_to_json",
    "rule_from_json",
]


@dataclass(frozen=True, eq=False)
class LocalRule:
    """Local rule f: Sigma^N -> Sigma with a dense transition table."""

    alphabet: Alphabet
    neighborhood: tuple[tuple[int, ...], ...]
    table: np.ndarray
    linear_coeffs: tuple[tuple[tuple[int, ...], int], ...] | None = None

    def __init__(self, alphabet, neighborhood, table, linear_coeffs=None):
        given = tuple(_normalize_cell(a) for a in neighborhood)
        if not given:
            raise ValueError("neighborhood must contain at least one offset")
        dims = {len(a) for a in given}
        if len(dims) != 1:
            raise ValueError("neighborhood offsets have inconsistent dimensions")
        if len(set(given)) != len(given):
            raise ValueError("neighborhood offsets must be distinct")
        neighborhood = tuple(sorted(given))
        table = np.asarray(table, dtype=np.int64)
        expected = alphabet.size ** len(neighborhood)
        if table.shape != (expected,):
            raise ValueError(f"table must have {expected} entries")
        if table.min() < 0 or table.max() >= alphabet.size:
            raise ValueError("table entries out of alphabet range")
        if neighborhood != given:
            # table was indexed in the caller's offset order; reindex it to
            # the canonical lexicographic order
            slot_of = [given.index(a) for a in neighborhood]
            codes = np.arange(expected, dtype=np.int64)
            canon = decode_patterns(codes, len(neighborhood), alphabet.size)
            user = np.empty_like(canon)
            user[:, slot_of] = canon
            table = table[user @ pattern_strides(len(given), alphabet.size)]
        table = table.copy()
        table.setflags(write=False)
        if linear_coeffs is not None:
            linear_coeffs = tuple(
                (_normalize_cell(a), int(c)) for a, c in linear_coeffs
            )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "neighborhood", neighborhood)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "linear_coeffs", linear_coeffs)

    @property
    def dim(self) -> int:
        return len(self.neighborhood[0])

    @property
    def radius(self) -> int:
        return max(abs(v) for a in self.neighborhood for v in a)

    @property
    def is_linear(self) -> bool:
        return self.linear_coeffs is not None

    def pattern_index(self, pattern) -> int:
        """Dense index of a neighbourhood pattern (symbols in offset order)."""
        strides = pattern_strides(len(self.neighborhood), self.alphabet.size)
        return int(np.dot(np.asarray(pattern, dtype=np.int64), strides))

    def __call__(self, pattern) -> int:
        return int(self.table[self.pattern_index(pattern)])


@dataclass(frozen=True, eq=False)
class TorusConfiguration:
    """Periodic d-dimensional array of symbol codes."""

    sides: tuple[int, ...]
    data: np.ndarray

    def __init__(self, sides, data):
        sides = tuple(int(s) for s in sides)
        if any(s < 1 for s in sides):
            raise ValueError("torus sides must be positive")
        data = np.asarray(data)
        if data.shape != sides:
            data = data.reshape(sides)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.sides))

    def get(self, cell) -> int:
        cell = _normalize_cell(cell, self.dim)
        idx = tuple(c % s for c, s in zip(cell, self.sides))
        return int(self.data[idx])


def _check_torus_fits(sides, rule: LocalRule):
    need = 2 * rule.radius + 1
    if min(sides) < need:
        raise ValueError(
            f"torus sides {sides} too small for rule radius {rule.radius}"
            f" (need at least {need})"
        )


def neighbourhood_codes(data: np.ndarray, rule: LocalRule, batch_dims: int = 0, dtype=None):
    """Neighbourhood pattern code of every cell of a raw torus array.

    `data` has shape (*batch, *sides); the trailing dims are periodic axes,
    each at least 2 * radius + 1 long (ValueError otherwise).
    Codes are read off one wrap-padded copy of the torus by slicing and
    accumulated in `dtype`, by default the smallest unsigned dtype that holds
    |Sigma|^|N|.  The copy is built by one concatenate per periodic axis,
    which on a 1024 x 33 block takes a third of np.pad(mode="wrap")'s time.
    """
    r = rule.radius
    sides = data.shape[batch_dims:]
    _check_torus_fits(sides, rule)
    padded = data
    for axis, side in enumerate(sides, start=batch_dims):
        lead = (slice(None),) * axis
        head, tail = padded[lead + (slice(side - r, side),)], padded[lead + (slice(r),)]
        padded = np.concatenate([head, padded, tail], axis=axis)
    batch = (slice(None),) * batch_dims
    first, *rest = [
        padded[batch + tuple(slice(r + v, r + v + s) for v, s in zip(offset, sides))]
        for offset in rule.neighborhood
    ]
    idx = first.astype(np.min_scalar_type(rule.table.size - 1) if dtype is None else dtype)
    for cells in rest:
        idx *= rule.alphabet.size
        np.add(idx, cells, out=idx, casting="unsafe")
    return idx


def apply_table(data: np.ndarray, rule: LocalRule, batch_dims: int = 0) -> np.ndarray:
    """Synchronous rule application on a raw torus array of shape
    (*batch, *sides), returned in the dtype of `data`: one table lookup on
    neighbourhood_codes."""
    codes = neighbourhood_codes(data, rule, batch_dims)
    return rule.table.astype(data.dtype, copy=False).take(codes)


def apply_rule(x: TorusConfiguration, rule: LocalRule) -> TorusConfiguration:
    """One deterministic global-map step with periodic indexing."""
    if x.dim != rule.dim:
        raise ValueError("configuration and rule dimensions differ")
    return TorusConfiguration(x.sides, apply_table(x.data, rule))


def build_elementary(code: int) -> LocalRule:
    """Elementary rule by Wolfram number: binary alphabet, offsets (-1, 0, 1),
    table bit f(1,1,1) most significant."""
    code = int(code)
    if not 0 <= code <= 255:
        raise ValueError("elementary rule code must be in 0..255")
    table = [(code >> p) & 1 for p in range(8)]
    return LocalRule(Alphabet((2,)), ((-1,), (0,), (1,)), table)


def build_linear(alphabet: Alphabet, coeffs: dict) -> LocalRule:
    """Linear rule f(u) = sum_a coeffs[a] * u_a in the group."""
    norm = {_normalize_cell(a): int(c) for a, c in coeffs.items()}
    offsets = tuple(sorted(norm))
    n = len(offsets)
    codes = np.arange(alphabet.size ** n, dtype=np.int64)
    slots = decode_patterns(codes, n, alphabet.size)
    table = np.zeros(len(codes), dtype=np.int64)
    for j, a in enumerate(offsets):
        table = alphabet.add(table, alphabet.scale(norm[a], slots[:, j]))
    return LocalRule(
        alphabet, offsets, table, linear_coeffs=tuple(sorted(norm.items()))
    )


def lift_second_order(f: LocalRule) -> LocalRule:
    """Second-order lift: a rule on Sigma x Sigma sending cellwise state
    (a_i, b_i) to (b_i, f((b_{i+a})_a) - a_i).

    The lifted global map is bijective for every f: given the output (b, c),
    the input is recovered as a_i = f((b_{i+a})_a) - c_i.
    """
    base = f.alphabet
    size = base.size
    pair = Alphabet(base.factors + base.factors)
    offsets = tuple(sorted(set(f.neighborhood) | {(0,) * f.dim}))
    n = len(offsets)
    center = offsets.index((0,) * f.dim)
    sub_slots = [offsets.index(a) for a in f.neighborhood]

    codes = np.arange(pair.size ** n, dtype=np.int64)
    slots = decode_patterns(codes, n, pair.size)
    older = slots // size  # the (a) components
    newer = slots % size  # the (b) components
    f_idx = newer[:, sub_slots] @ pattern_strides(len(sub_slots), size)
    y = f.table[f_idx]
    out = newer[:, center] * size + base.sub(y, older[:, center])
    return LocalRule(pair, offsets, out)


def rule_to_json(rule: LocalRule) -> dict:
    """JSON-ready dict; linear rules serialize their coefficients, others the
    dense table.  Round-trips bit-exactly."""
    doc = {
        "alphabet": list(rule.alphabet.factors),
        "neighborhood": [list(a) for a in rule.neighborhood],
    }
    if rule.is_linear:
        doc["linear"] = [[list(a), c] for a, c in rule.linear_coeffs]
    else:
        doc["table"] = [int(v) for v in rule.table]
    return doc


def rule_from_json(doc: dict) -> LocalRule:
    if "elementary" in doc:
        return build_elementary(doc["elementary"])
    alphabet = Alphabet(tuple(doc["alphabet"]))
    if "linear" in doc:
        coeffs = {tuple(a): int(c) for a, c in doc["linear"]}
        rule = build_linear(alphabet, coeffs)
        declared = tuple(sorted(tuple(a) for a in doc.get("neighborhood", [])))
        if declared and declared != rule.neighborhood:
            raise ValueError("declared neighborhood does not match linear coefficients")
        return rule
    return LocalRule(alphabet, [tuple(a) for a in doc["neighborhood"]], doc["table"])
