import numpy as np
import pytest

from rcalab.lattice import (
    Alphabet,
    CellSet,
    diameter,
    hypercube,
    moore,
    moore_boundary,
    translate,
    decode_patterns,
    marginalize_patterns,
    pattern_strides,
)


def test_alphabet_basics():
    z2 = Alphabet((2,))
    assert z2.size == 2
    assert z2.h_max == pytest.approx(np.log(2))
    assert z2.add(1, 1) == 0
    assert z2.neg(1) == 1

    z6 = Alphabet((2, 3))
    assert z6.size == 6
    assert z6.encode((1, 2)) == 5
    # componentwise addition
    assert z6.add(z6.encode((1, 2)), z6.encode((1, 1))) == z6.encode((0, 0))


def test_alphabet_rejects_trivial():
    with pytest.raises(ValueError):
        Alphabet((1,))
    with pytest.raises(ValueError):
        Alphabet(())


def test_group_axioms_random():
    rng = np.random.default_rng(0)
    for factors in [(2,), (3,), (5,), (2, 3), (2, 2, 2), (4, 5)]:
        g = Alphabet(factors)
        a = rng.integers(0, g.size, size=200)
        b = rng.integers(0, g.size, size=200)
        c = rng.integers(0, g.size, size=200)
        assert np.array_equal(g.add(a, 0), a)
        assert np.array_equal(g.sub(g.add(a, b), b), a)
        assert np.array_equal(g.add(a, b), g.add(b, a))
        assert np.array_equal(g.add(g.add(a, b), c), g.add(a, g.add(b, c)))
        assert np.array_equal(g.add(a, g.neg(a)), np.zeros(200, dtype=np.int64))


def test_cellset_canonical_form():
    j = CellSet([3, 1, 1, 2])
    assert j.cells == ((1,), (2,), (3,))
    assert len(j) == 3
    assert 2 in j and 5 not in j
    with pytest.raises(ValueError):
        CellSet([(0, 0), (1,)])
    with pytest.raises(ValueError):
        CellSet([])


def test_moore_examples():
    assert moore(CellSet([0]), 1).cells == ((-1,), (0,), (1,))
    assert len(moore(CellSet([(0, 0)]), 1)) == 9
    j = CellSet([5, 7])
    assert moore(j, 0) == j


def test_moore_boundary_examples():
    assert moore_boundary(CellSet([0, 1]), 2).cells == ((-2,), (-1,), (2,), (3,))
    for n in (1, 3, 5):
        for r in (1, 2, 4):
            assert len(moore_boundary(hypercube(n), r)) == 2 * r
    # d=2: 4x4 block minus 2x2
    assert len(moore_boundary(hypercube(2, 2), 1)) == 12


def test_diameter_examples():
    assert diameter(CellSet([3])) == 1
    assert diameter(CellSet([0, 5])) == 6
    assert diameter(CellSet([(0, 0), (2, 3)])) == 4
    with pytest.raises(ValueError):
        diameter(CellSet([], dim=1))


def test_moore_composition_property():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 3))
        cells = [tuple(rng.integers(-4, 5, size=d)) for _ in range(rng.integers(1, 5))]
        j = CellSet(cells)
        r, s = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        assert moore(j, r + s) == moore(moore(j, r), s)
        assert diameter(moore(j, r)) == diameter(j) + 2 * r


def test_moore_hypercube_count():
    for d in (1, 2):
        for n in (1, 2, 3):
            for r in (0, 1, 2):
                assert len(moore(hypercube(n, d), r)) == (n + 2 * r) ** d


def test_window_and_translate():
    assert hypercube(3, anchor=(2,)).cells == ((2,), (3,), (4,))
    assert hypercube(2, 2).cells == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert translate(hypercube(2), (5,)).cells == ((5,), (6,))


def test_cellset_array_path_matches_tuple_path():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        arr = rng.integers(-3, 4, size=(int(rng.integers(1, 30)), d))  # repeats likely
        from_array = CellSet(arr)
        from_tuples = CellSet([tuple(int(v) for v in row) for row in arr])
        assert from_array == from_tuples and from_array.dim == from_tuples.dim == d
        assert from_array.cells == tuple(sorted(set(from_array.cells)))
        assert all(type(v) is int for c in from_array.cells for v in c)
        assert CellSet(arr.astype(np.int32), dim=d) == from_tuples
    with pytest.raises(ValueError):
        CellSet(np.zeros((3, 2), dtype=np.int64), dim=3)
    empty = CellSet(np.zeros((0, 2), dtype=np.int64), dim=2)
    assert empty.cells == () and empty.dim == 2 and empty == CellSet([], dim=2)


def test_hypercube_and_translate_match_tuple_construction():
    from itertools import product

    rng = np.random.default_rng(6)
    for _ in range(60):
        side, d = int(rng.integers(0, 5)), int(rng.integers(1, 4))
        anchor = tuple(int(a) for a in rng.integers(-6, 6, size=d))
        cells = [tuple(a + o for a, o in zip(anchor, offs)) for offs in product(range(side), repeat=d)]
        cube = hypercube(side, d, anchor=anchor)
        assert cube == CellSet(cells, dim=d) and cube.cells == tuple(cells)
        v = tuple(int(x) for x in rng.integers(-9, 9, size=d))
        moved = [tuple(c + w for c, w in zip(cell, v)) for cell in cells]
        assert translate(cube, v) == CellSet(moved, dim=d)
    with pytest.raises(ValueError):
        translate(hypercube(2, 2), (1,))


def test_pattern_codec_roundtrip():
    rng = np.random.default_rng(2)
    for base in (2, 3, 4):
        codes = rng.integers(0, base ** 5, size=64)
        symbols = decode_patterns(codes, 5, base)
        assert np.array_equal(symbols @ pattern_strides(5, base), codes)


def test_marginalize_patterns_matches_code_loop():
    # Z3 on the 3x3 square, keeping three cells that are not a prefix
    window, sub = hypercube(3, 2), CellSet([(0, 1), (2, 0), (2, 2)])
    keep = [window.cells.index(c) for c in sub.cells]
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(3 ** 9))
    counts = rng.integers(0, 50, size=(4, 3 ** 9))  # a leading (T+1) axis
    expect_p, expect_c = np.zeros(27), np.zeros((4, 27), dtype=np.int64)
    for code in range(3 ** 9):
        digits = [code // 3 ** (8 - i) % 3 for i in range(9)]
        sub_code = sum(digits[k] * 3 ** (2 - j) for j, k in enumerate(keep))
        expect_p[sub_code] += probs[code]
        expect_c[:, sub_code] += counts[:, code]
    assert np.allclose(marginalize_patterns(probs, window, sub, 3), expect_p, rtol=1e-12, atol=0)
    got = marginalize_patterns(counts, window, sub, 3)
    assert got.dtype == np.int64 and np.array_equal(got, expect_c)
    assert np.array_equal(marginalize_patterns(counts, window, window, 3), counts)
    assert np.array_equal(marginalize_patterns(probs, window, window, 3), probs)
    with pytest.raises(ValueError):
        marginalize_patterns(probs, window, CellSet([(0, 1), (3, 0)]), 3)


# refusals no other test reaches, (message pattern, call)
LATTICE_REFUSALS = {
    "window side must be non-negative": lambda: hypercube(-1),
    "radius must be non-negative": lambda: moore(CellSet([0]), -1),
    "digit count does not match": lambda: Alphabet((2, 3)).encode([1]),
    "digit 2 out of range": lambda: Alphabet((2, 3)).encode([2, 0]),
}


@pytest.mark.parametrize("message", sorted(LATTICE_REFUSALS))
def test_lattice_refusals(message):
    with pytest.raises(ValueError, match=message):
        LATTICE_REFUSALS[message]()
