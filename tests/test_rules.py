import json
from itertools import product

import numpy as np
import pytest

from rcalab.lattice import Alphabet
from rcalab.rules import (
    LocalRule,
    apply_table,
    build_elementary,
    build_linear,
    lift_second_order,
    rule_from_json,
    rule_to_json,
)

Z2 = Alphabet((2,))
Z3 = Alphabet((3,))


def test_elementary_90_table():
    r90 = build_elementary(90)
    expected = {
        (1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 0, (1, 0, 0): 1,
        (0, 1, 1): 1, (0, 1, 0): 0, (0, 0, 1): 1, (0, 0, 0): 0,
    }
    for pat, out in expected.items():
        assert r90(pat) == out


def test_elementary_204_is_identity():
    r = build_elementary(204)
    for pat in product((0, 1), repeat=3):
        assert r(pat) == pat[1]


def test_elementary_170_is_left_shift():
    r = build_elementary(170)
    for pat in product((0, 1), repeat=3):
        assert r(pat) == pat[2]


def test_elementary_bad_code():
    with pytest.raises(ValueError):
        build_elementary(256)
    with pytest.raises(ValueError):
        build_elementary(-1)


def test_apply_rule_examples():
    x = np.array([0, 0, 1, 0, 0], dtype=np.uint8)
    assert apply_table(x, build_elementary(90)).tolist() == [0, 1, 0, 1, 0]
    assert apply_table(x, build_elementary(102)).tolist() == [0, 1, 1, 0, 0]
    assert apply_table(x, build_elementary(204)).tolist() == x.tolist()
    assert apply_table(x, build_elementary(90)).dtype == np.uint8


def test_apply_rule_torus_too_small():
    with pytest.raises(ValueError):
        apply_table(np.array([0, 1]), build_elementary(90))


def test_linear_matches_elementary():
    lin90 = build_linear(Z2, {-1: 1, 1: 1})
    from rcalab.analysis import contiguous_table

    _, m, table = contiguous_table(lin90)
    assert m == 3
    assert table.tolist() == build_elementary(90).table.tolist()
    assert build_linear(Z2, {1: 1}).table.tolist() == [0, 1]


def test_linear_ternary():
    rule = build_linear(Z3, {0: 1, 1: 1})
    assert rule((1, 2)) == 0
    assert rule((2, 2)) == 1


def test_linearity_on_torus():
    rng = np.random.default_rng(0)
    rule = build_linear(Z3, {-1: 2, 0: 1, 1: 1})
    x = rng.integers(0, 3, size=9)
    y = rng.integers(0, 3, size=9)
    fx = apply_table(x, rule)
    fy = apply_table(y, rule)
    fxy = apply_table(Z3.add(x, y), rule)
    assert np.array_equal(fxy, Z3.add(fx, fy))


def test_translation_commutes():
    rng = np.random.default_rng(1)
    for code in (90, 110, 30):
        rule = build_elementary(code)
        x = rng.integers(0, 2, size=11)
        shifted = np.roll(x, 3)
        assert np.array_equal(
            apply_table(shifted, rule), np.roll(apply_table(x, rule), 3)
        )


def test_locality_by_perturbation():
    # output at cell i depends only on input cells i + N
    rng = np.random.default_rng(2)
    rule = build_elementary(110)
    x = rng.integers(0, 2, size=15)
    y = x.copy()
    y[7] ^= 1
    fx, fy = apply_table(x, rule), apply_table(y, rule)
    changed = np.nonzero(fx != fy)[0]
    assert set(changed) <= {6, 7, 8}


def test_2d_rule_application():
    # 2D XOR of the four von Neumann neighbours
    rule = build_linear(Z2, {(-1, 0): 1, (1, 0): 1, (0, -1): 1, (0, 1): 1})
    assert rule.radius == 1 and rule.dim == 2
    x = np.zeros((5, 5), dtype=np.int64)
    x[2, 2] = 1
    out = apply_table(x, rule)
    expect = np.zeros((5, 5), dtype=np.int64)
    for i, j in ((1, 2), (3, 2), (2, 1), (2, 3)):
        expect[i, j] = 1
    assert np.array_equal(out, expect)


def test_lift_second_order_constant_rule():
    # f == 0 lifts to (a, b) -> (b, -a); fourth power is the identity
    lift = lift_second_order(build_linear(Z2, {0: 0}))
    x = np.array([0, 1, 2, 3])
    y = x.copy()
    for _ in range(4):
        y = apply_table(y, lift)
    assert np.array_equal(x, y)


def test_lift_second_order_bijective_on_torus():
    lift = lift_second_order(build_elementary(90))
    assert lift.alphabet.size == 4
    images = set()
    for cfg in product(range(4), repeat=4):
        images.add(tuple(apply_table(np.array(cfg), lift).tolist()))
    assert len(images) == 4 ** 4


def test_lift_inverse_reconstruction():
    f = build_elementary(90)
    lift = lift_second_order(f)
    rng = np.random.default_rng(3)
    pair = rng.integers(0, 4, size=8)
    out = apply_table(pair, lift)
    b_in, a_in = pair % 2, pair // 2
    b_out, c_out = out // 2, out % 2
    assert np.array_equal(b_out, b_in)
    # a_i = f((b_{i+a})_a) - c_i recovers the older component
    recovered = Z2.sub(apply_table(b_in, f), c_out)
    assert np.array_equal(recovered, a_in)


def test_lift_injective_small_tori():
    for code in (0, 30, 90, 110):
        lift = lift_second_order(build_elementary(code))
        images = set()
        for cfg in product(range(4), repeat=3):
            images.add(tuple(apply_table(np.array(cfg), lift).tolist()))
        assert len(images) == 4 ** 3, f"lift of rule {code} not bijective"


def test_rule_serialization_roundtrip():
    r90 = build_elementary(90)
    doc = json.loads(json.dumps(rule_to_json(r90)))
    back = rule_from_json(doc)
    assert back.table.tolist() == r90.table.tolist()
    assert back.neighborhood == r90.neighborhood
    assert back.alphabet.factors == r90.alphabet.factors

    lin = build_linear(Z3, {-1: 2, 1: 1})
    doc = json.loads(json.dumps(rule_to_json(lin)))
    assert "linear" in doc
    back = rule_from_json(doc)
    assert back.table.tolist() == lin.table.tolist()
    assert back.linear_coeffs == lin.linear_coeffs


def test_rule_from_json_elementary():
    # the config schema's {"elementary": n} form
    rule = rule_from_json({"elementary": 30})
    assert rule.table.tolist() == build_elementary(30).table.tolist()
    assert rule.neighborhood == build_elementary(30).neighborhood


def test_unsorted_neighborhood_reindexes_table():
    # rule 90 with offsets given as (+1, -1, 0): f_user(c, a, b) = a xor c
    table_user = np.empty(8, dtype=np.int64)
    for c, a, b in product((0, 1), repeat=3):
        table_user[(c << 2) | (a << 1) | b] = a ^ c
    rule = LocalRule(Z2, [(1,), (-1,), (0,)], table_user)
    assert rule.neighborhood == ((-1,), (0,), (1,))
    assert rule.table.tolist() == build_elementary(90).table.tolist()


def test_rule_validation():
    with pytest.raises(ValueError):
        LocalRule(Z2, [(-1,), (-1,)], [0, 1, 0, 1])  # duplicate offsets
    with pytest.raises(ValueError):
        LocalRule(Z2, [(-1,), (1,)], [0, 1])  # wrong table size
    with pytest.raises(ValueError):
        LocalRule(Z2, [(0,)], [0, 2])  # symbol out of range
