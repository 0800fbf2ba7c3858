"""Lattice geometry: finite Abelian alphabets, cell sets, Moore extensions,
hypercube windows, and the mixed-radix pattern codec.

Symbols of an alphabet Z_{m1} x ... x Z_{mk} are encoded as dense integers in
[0, size), first factor most significant.  Patterns over an ordered list of
cells use the same convention with base |Sigma| per cell, first cell most
significant.  The dense encodings are what make distributions over Sigma^A
indexable as flat numpy vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iterproduct

import numpy as np

__all__ = [
    "Alphabet",
    "CellSet",
    "hypercube",
    "moore",
    "moore_boundary",
    "diameter",
    "translate",
    "pattern_strides",
    "encode_patterns",
    "decode_patterns",
    "marginalize_patterns",
]


@dataclass(frozen=True)
class Alphabet:
    """Finite Abelian group Z_{m1} x ... x Z_{mk} with at least two elements."""

    factors: tuple[int, ...]

    def __init__(self, factors):
        if isinstance(factors, (int, np.integer)):
            factors = (int(factors),)
        factors = tuple(int(m) for m in factors)
        if not factors or any(m < 1 for m in factors):
            raise ValueError("alphabet factors must be positive integers")
        if math.prod(factors) < 2:
            raise ValueError("alphabet must have at least two symbols")
        object.__setattr__(self, "factors", factors)

    @property
    def size(self) -> int:
        return math.prod(self.factors)

    @property
    def state_dtype(self) -> np.dtype:
        """Smallest unsigned dtype that holds every symbol code."""
        return np.min_scalar_type(self.size - 1)

    @property
    def h_max(self) -> float:
        """Maximum per-symbol entropy log|Sigma|, in nats."""
        return math.log(self.size)

    @property
    def _strides(self) -> tuple[int, ...]:
        strides = []
        s = 1
        for m in reversed(self.factors):
            strides.append(s)
            s *= m
        return tuple(reversed(strides))

    def encode(self, digits) -> int:
        digits = tuple(int(x) for x in digits)
        if len(digits) != len(self.factors):
            raise ValueError("digit count does not match factor count")
        code = 0
        for x, m, s in zip(digits, self.factors, self._strides):
            if not 0 <= x < m:
                raise ValueError(f"digit {x} out of range for Z_{m}")
            code += x * s
        return code

    # Group operations on symbol codes.  Array-friendly: accept scalars or
    # numpy arrays, return the same shape (int64).
    def add(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for m, s in zip(self.factors, self._strides):
            out += ((a // s + b // s) % m) * s
        return out if out.ndim else int(out)

    def neg(self, a):
        a = np.asarray(a, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        for m, s in zip(self.factors, self._strides):
            out += ((m - a // s % m) % m) * s
        return out if out.ndim else int(out)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, c: int, a):
        """Integer multiple c*a in the group (componentwise)."""
        a = np.asarray(a, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        for m, s in zip(self.factors, self._strides):
            out += ((int(c) * (a // s % m)) % m) * s
        return out if out.ndim else int(out)

    def symbols(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int64)


def _normalize_cell(cell, dim=None):
    if isinstance(cell, (int, np.integer)):
        cell = (int(cell),)
    else:
        cell = tuple(int(v) for v in cell)
    if dim is not None and len(cell) != dim:
        raise ValueError(f"cell {cell} does not have dimension {dim}")
    return cell


@dataclass(frozen=True)
class CellSet:
    """Finite set of integer d-vectors, stored sorted lexicographically.

    The canonical order makes set equality and pattern indexing deterministic;
    bare ints are accepted as d=1 cells.
    """

    dim: int
    cells: tuple[tuple[int, ...], ...]

    def __init__(self, cells, dim: int | None = None):
        norm = []
        for c in cells:
            c = _normalize_cell(c)
            norm.append(c)
        if norm:
            dims = {len(c) for c in norm}
            if len(dims) != 1:
                raise ValueError("cells have inconsistent dimensions")
            inferred = dims.pop()
            if dim is not None and dim != inferred:
                raise ValueError("explicit dim does not match cells")
            dim = inferred
        elif dim is None:
            raise ValueError("empty cell set needs an explicit dim")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "cells", tuple(sorted(set(norm))))

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __contains__(self, cell):
        return _normalize_cell(cell) in set(self.cells)

    def as_array(self) -> np.ndarray:
        if not self.cells:
            return np.zeros((0, self.dim), dtype=np.int64)
        return np.asarray(self.cells, dtype=np.int64)

    def issubset(self, other: "CellSet") -> bool:
        return set(self.cells) <= set(other.cells)

    def difference(self, other: "CellSet") -> "CellSet":
        rhs = set(other.cells)
        return CellSet([c for c in self.cells if c not in rhs], dim=self.dim)


def hypercube(side: int, dim: int = 1, anchor=None) -> CellSet:
    """The window S_side = [0, side-1]^dim (optionally shifted to anchor)."""
    anchor = _normalize_cell((0,) * dim if anchor is None else anchor)
    if int(side) < 0:
        raise ValueError("window side must be non-negative")
    cells = [
        tuple(a + v for a, v in zip(anchor, offs))
        for offs in iterproduct(range(int(side)), repeat=len(anchor))
    ]
    return CellSet(cells, dim=len(anchor))


def translate(J: CellSet, vector) -> CellSet:
    v = _normalize_cell(vector, J.dim)
    return CellSet([tuple(c + w for c, w in zip(cell, v)) for cell in J], dim=J.dim)


def moore(J: CellSet, r: int) -> CellSet:
    """Moore extension: J fattened by radius r in sup-norm."""
    r = int(r)
    if r < 0:
        raise ValueError("radius must be non-negative")
    if r == 0 or len(J) == 0:
        return J
    offsets = np.array(
        list(iterproduct(range(-r, r + 1), repeat=J.dim)), dtype=np.int64
    )
    fat = (J.as_array()[:, None, :] + offsets[None, :, :]).reshape(-1, J.dim)
    fat = np.unique(fat, axis=0)
    return CellSet([tuple(row) for row in fat.tolist()], dim=J.dim)


def moore_boundary(J: CellSet, r: int) -> CellSet:
    """Boundary ring moore(J, r) minus J."""
    return moore(J, r).difference(J)


def diameter(A: CellSet) -> int:
    """Smallest n such that A fits in some anchor + [0, n-1]^d."""
    if len(A) == 0:
        raise ValueError("diameter of an empty cell set is undefined")
    arr = A.as_array()
    return int((arr.max(axis=0) - arr.min(axis=0) + 1).max())


def pattern_strides(n_cells: int, base: int) -> np.ndarray:
    """Mixed-radix strides for patterns over n_cells cells (first cell most
    significant)."""
    return base ** np.arange(n_cells - 1, -1, -1, dtype=np.int64)


def encode_patterns(symbols: np.ndarray, base: int) -> np.ndarray:
    """Encode rows of per-cell symbols into dense pattern codes."""
    symbols = np.asarray(symbols, dtype=np.int64)
    return symbols @ pattern_strides(symbols.shape[-1], base)


def decode_patterns(codes: np.ndarray, n_cells: int, base: int) -> np.ndarray:
    """Decode pattern codes into rows of per-cell symbols (shape (..., n_cells))."""
    codes = np.asarray(codes, dtype=np.int64)
    strides = pattern_strides(n_cells, base)
    return (codes[..., None] // strides) % base


def marginalize_patterns(values, window: CellSet, sub: CellSet, base: int) -> np.ndarray:
    """Sum values indexed by the patterns of `window` (last axis, base^|window|
    entries) onto the patterns of sub, a subset of the window's cells;
    leading axes are a batch.  The last axis is viewed as one axis per cell
    and the cells outside sub are summed out."""
    if not sub.issubset(window):
        raise ValueError("sub-window must be contained in the window")
    values, keep = np.asarray(values), set(sub.cells)
    batch = values.shape[:-1]
    drop = tuple(len(batch) + i for i, c in enumerate(window.cells) if c not in keep)
    tensor = values.reshape(batch + (base,) * len(window)).sum(axis=drop)
    # cells are stored sorted, so the kept axes are in sub's order
    return tensor.reshape(batch + (base ** len(sub),))
