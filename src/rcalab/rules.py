"""Deterministic CA machinery: local rules, synchronous global-map steps on
torus arrays, built-in rule families, and rule (de)serialization.

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


def _check_torus_fits(sides, rule: LocalRule):
    need = 2 * rule.radius + 1
    if min(sides) < need:
        raise ValueError(
            f"torus sides {sides} too small for rule radius {rule.radius}"
            f" (need at least {need})"
        )


def wrap_pad(data: np.ndarray, radius: int, axes) -> np.ndarray:
    """Copy of data with `radius` cells of wrap-around added at both ends of
    each periodic axis in `axes`, by one concatenate per axis, which on a
    1024 x 33 block takes a third of np.pad(mode="wrap")'s time."""
    r = radius
    for axis in axes:
        side = data.shape[axis]
        lead = (slice(None),) * axis
        head, tail = data[lead + (slice(side - r, side),)], data[lead + (slice(r),)]
        data = np.concatenate([head, data, tail], axis=axis)
    return data


def box_codes(src: np.ndarray, rule: LocalRule, out: np.ndarray, lead: int = 0) -> np.ndarray:
    """Append to out, as its low mixed-radix digits, the neighbourhood
    pattern codes of the cells one radius in from every edge of src: out
    becomes out * |Sigma|^|N| + code in place, and is returned.

    The periodic axes of src and out are axes lead .. lead + dim - 1, and on
    each of them out is 2 * radius shorter than src; the other axes match.
    Each offset of the neighbourhood is one plain slice of src, so the codes
    of a box are read off any array holding the box and its neighbours:
    a wrap-padded torus or a box one radius wider."""
    r = rule.radius
    batch = (slice(None),) * lead
    sides = out.shape[lead: lead + rule.dim]
    for offset in rule.neighborhood:
        out *= rule.alphabet.size
        cells = src[batch + tuple(slice(r + v, r + v + s) for v, s in zip(offset, sides))]
        np.add(out, cells, out=out, casting="unsafe")
    return out


def apply_table(data: np.ndarray, rule: LocalRule, batch_dims: int = 0) -> np.ndarray:
    """Synchronous rule application on a raw torus array of shape
    (*batch, *sides), returned in the dtype of `data`.

    The trailing dims are periodic axes, each at least 2 * radius + 1 long
    (ValueError otherwise).  Neighbourhood codes, in the smallest unsigned
    dtype that holds |Sigma|^|N|, are read off one wrap-padded copy of the
    torus by box_codes, and the table is one lookup on them.
    """
    _check_torus_fits(data.shape[batch_dims:], rule)
    padded = wrap_pad(data, rule.radius, range(batch_dims, data.ndim))
    codes = np.zeros(data.shape, dtype=np.min_scalar_type(rule.table.size - 1))
    box_codes(padded, rule, codes, lead=batch_dims)
    return rule.table.astype(data.dtype, copy=False).take(codes)


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
    return LocalRule(alphabet, doc["neighborhood"], doc["table"])
