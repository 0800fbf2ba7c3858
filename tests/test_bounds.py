import dataclasses
import json
import math
from itertools import product

import numpy as np
import pytest

from oracles import noise_lemma_direct
from rcalab.bounds import (
    SLACK,
    BoundReport,
    bootstrap_layout,
    check_block_superadditivity,
    equilibrium_constants,
    main_theorem_bound,
    noise_lemma_sides,
    noise_lemma_suite,
    proof_rate_constants,
    theorem_applicable,
)
from rcalab.entropy import WindowDistribution, entropy_vec
from rcalab.exact import leakage_constants
from rcalab.lattice import Alphabet, hypercube, moore, translate
from rcalab.noise import NoiseModel, additive_noise, channel_matrix, kappa
from rcalab.rules import build_elementary

Z2 = Alphabet((2,))
Z3 = Alphabet((3,))
Q91 = additive_noise(Z2, [0.9, 0.1])


def lemma_sides(p, noise, variant):
    """(lhs, rhs) of noise_lemma_sides on a batch of one instance."""
    lhs, rhs = noise_lemma_sides(
        np.asarray(p, dtype=np.float64)[None], channel_matrix(noise)[None], np.array([kappa(noise)]), variant
    )
    return lhs[0], rhs[0]


def test_noise_lemma_point_mass():
    lhs, rhs = lemma_sides([1.0, 0.0], Q91, "scalar")
    assert lhs >= rhs - SLACK
    assert lhs == pytest.approx(0.3250829733914482, abs=1e-12)
    assert rhs == pytest.approx(0.2 * math.log(2), abs=1e-15)


def test_noise_lemma_uniform_equality():
    lhs, rhs = lemma_sides([0.5, 0.5], Q91, "scalar")
    assert lhs >= rhs - SLACK
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert lhs == pytest.approx(math.log(2), abs=1e-12)


def test_noise_lemma_joint_form():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(8))
    lhs, rhs = lemma_sides(p, Q91, "joint")
    assert lhs >= rhs - SLACK
    # rhs uses n * kappa * h_max
    assert rhs == pytest.approx(3 * 0.2 * math.log(2) + 0.8 * entropy_vec(p))


def test_noise_lemma_conditional_form():
    rng = np.random.default_rng(1)
    joint = rng.dirichlet(np.ones(6)).reshape(3, 2)
    lhs, rhs = lemma_sides(joint, Q91, "conditional")
    assert lhs >= rhs - SLACK


@pytest.mark.parametrize(
    "factors, q", [((2,), [0.9, 0.1]), ((3,), [0.6, 0.3, 0.1]), ((2, 2), [0.4, 0.3, 0.2, 0.1])]
)
def test_noise_lemma_sides_match_direct_entropies(factors, q):
    # the sides by a path other than noise_lemma_sides: H(A+N) of the law
    # convolve_sites noises, and H(A+N|C) as the p_c-weighted entropies of
    # each conditional law p(.|c) pushed through the channel
    noise = additive_noise(Alphabet(factors), q)
    size = len(q)
    rng = np.random.default_rng(len(q))
    laws = [("joint", rng.dirichlet(np.ones(size ** n))) for n in (1, 2, 3)]
    laws.append(("conditional", rng.dirichlet(np.ones(4 * size)).reshape(4, size)))
    for variant, p in laws:
        want = noise_lemma_direct(p, noise, variant)
        assert lemma_sides(p, noise, variant) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_noise_lemma_suite_small():
    reports = noise_lemma_suite([[2], [3]], 50, seed=12)
    assert len(reports) == 2 * 50 * 3
    assert all(r.ok for r in reports)


def test_noise_lemma_suite_matches_per_instance_loop():
    # the same draws, in the same Generator order, checked one at a time by
    # the direct entropies of the noisy laws; the product alphabet's channels
    # come from Alphabet.add through NoiseModel
    factors_list, n_instances, seed = [[2], [3], [2, 2]], 40, 5
    rng = np.random.default_rng(seed)
    expected = []
    for factors in factors_list:
        alphabet = Alphabet(tuple(factors))
        size = alphabet.size
        for _ in range(n_instances):
            q = rng.dirichlet(np.ones(size))
            q = (q + 1e-6) / (1.0 + size * 1e-6)
            noise = NoiseModel(alphabet, "additive", q / q.sum())
            params = {"kappa": kappa(noise), "alphabet": list(factors), "n": 1}
            expected.append(("scalar", params, noise_lemma_direct(rng.dirichlet(np.ones(size)), noise, "scalar")))
            n = int(rng.integers(1, 4))
            p = rng.dirichlet(np.ones(size ** n))
            expected.append(("joint", dict(params, n=n), noise_lemma_direct(p, noise, "joint")))
            pc = rng.dirichlet(np.ones(3 * size)).reshape(3, size)
            expected.append(("conditional", params, noise_lemma_direct(pc, noise, "conditional")))
    got = noise_lemma_suite(factors_list, n_instances, seed)
    assert len(got) == len(expected) == 3 * 3 * n_instances
    assert {r.params["n"] for r in got if r.claim == "noise-lemma/joint"} == {1, 2, 3}
    for g, (variant, params, (lhs, rhs)) in zip(got, expected):
        assert (g.claim, g.ok, g.params) == (f"noise-lemma/{variant}", lhs >= rhs - SLACK, params)
        assert g.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
        assert g.rhs == pytest.approx(rhs, rel=1e-12, abs=0)


def test_noise_lemma_conditional_zero_probability_row():
    # a conditioning state of probability 0 has no law of A: it weighs 0, and
    # the sides equal those of the matrix without that row
    rng = np.random.default_rng(3)
    noise = additive_noise(Z3, [0.6, 0.3, 0.1])
    kept = rng.dirichlet(np.ones(6)).reshape(2, 3)
    joint = np.insert(kept, 1, 0.0, axis=0)
    want = lemma_sides(kept, noise, "conditional")
    lhs, rhs = lemma_sides(joint, noise, "conditional")
    assert math.isfinite(lhs) and math.isfinite(rhs) and lhs >= rhs - SLACK
    assert lhs == pytest.approx(want[0], rel=1e-12, abs=0)
    assert rhs == pytest.approx(want[1], rel=1e-12, abs=0)
    # inside a batch, next to a law with no zero row
    other = rng.dirichlet(np.ones(9)).reshape(3, 3)
    other_noise = additive_noise(Z3, [0.2, 0.5, 0.3])
    channels = np.stack([channel_matrix(noise), channel_matrix(other_noise)])
    kappas = np.array([kappa(noise), kappa(other_noise)])
    lhs, rhs = noise_lemma_sides(np.stack([joint, other]), channels, kappas, "conditional")
    assert np.isfinite(lhs).all() and np.isfinite(rhs).all()
    assert lhs[0] == pytest.approx(want[0], rel=1e-12, abs=0)
    assert rhs[0] == pytest.approx(want[1], rel=1e-12, abs=0)
    alone = lemma_sides(other, other_noise, "conditional")
    assert lhs[1] == pytest.approx(alone[0], rel=1e-12, abs=0)
    assert rhs[1] == pytest.approx(alone[1], rel=1e-12, abs=0)


def test_equilibrium_constants():
    a0, b0 = equilibrium_constants(Q91)
    assert a0 == pytest.approx(4.481420117724551, abs=1e-12)
    assert b0 == pytest.approx(-1.642498375700651, abs=1e-12)
    # kappa -> 1 limit convention
    a0u, b0u = equilibrium_constants(additive_noise(Z2, [0.5, 0.5]))
    assert a0u == 0.0 and b0u == 0.0


def test_bootstrap_layout_examples():
    lay = bootstrap_layout(2, 2, 1, 3, 1)
    assert lay.m == 16
    assert lay.blocks[0].cells == ((3,), (4,))
    assert lay.blocks[1].cells == ((11,), (12,))
    assert moore(lay.blocks[0], 3).cells == tuple((i,) for i in range(8))
    assert moore(lay.blocks[1], 3).cells == tuple((i,) for i in range(8, 16))

    lay2 = bootstrap_layout(1, 2, 1, 1, 2)
    assert lay2.m == 6
    assert {b.cells[0] for b in lay2.blocks} == {(1, 1), (1, 4), (4, 1), (4, 4)}

    lay0 = bootstrap_layout(2, 3, 2, 0, 1)
    assert lay0.m == 6
    assert [b.cells for b in lay0.blocks] == [
        (((0,), (1,))), (((2,), (3,))), (((4,), (5,))),
    ]


def test_bootstrap_layout_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        r = int(rng.integers(0, 3))
        t = int(rng.integers(0, 5))
        d = int(rng.integers(1, 3))
        lay = bootstrap_layout(n, k, r, t, d)
        assert lay.packed()
        assert lay.m == k * (n + 2 * r * t)
        assert len(lay.blocks) == k ** d
        # Q_w = (n + 2rt) w + [rt, rt + n - 1]^d, w in lexicographic order
        pitch = n + 2 * r * t
        expected = [
            tuple(tuple(r * t + pitch * wi + o for wi, o in zip(w, offs)) for offs in product(range(n), repeat=d))
            for w in product(range(k), repeat=d)
        ]
        assert [q.cells for q in lay.blocks] == expected


def test_bootstrap_packed_refuses_blocks_leaving_s_m():
    # every block moved one cell along one axis: the outermost fattened
    # block then pokes one cell out of S_m, while the blocks stay disjoint
    for n, k, r, t, d in ((2, 2, 1, 3, 1), (1, 2, 1, 1, 2), (2, 3, 2, 0, 1), (3, 1, 1, 2, 2)):
        lay = bootstrap_layout(n, k, r, t, d)
        assert lay.packed()
        for axis in range(d):
            for step in (-1, 1):
                shift = tuple(step if i == axis else 0 for i in range(d))
                moved = dataclasses.replace(lay, blocks=tuple(translate(q, shift) for q in lay.blocks))
                assert not moved.packed(), (n, k, r, t, d, shift)


def test_superadditivity_product_equality():
    # t = 0, no padding: deficiency is exactly additive
    block = WindowDistribution(hypercube(1), Z2, [0.7, 0.3])
    rep = check_block_superadditivity(block, 2, r=0, t=0)
    assert rep.ok
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)


def test_superadditivity_point_mass():
    block = WindowDistribution.point_mass(hypercube(1), Z2, 1)
    rep = check_block_superadditivity(block, 2, r=1, t=1)
    assert rep.ok
    assert rep.lhs >= 2 * 1 * math.log(2) - 1e-12


def test_superadditivity_random_with_uniform_padding():
    rng = np.random.default_rng(9)
    for t in (0, 1, 2):
        block = WindowDistribution(hypercube(1), Z2, rng.dirichlet([1, 1]))
        rep = check_block_superadditivity(block, 2, r=1, t=t)
        assert rep.ok
        # uniform padding contributes zero extra deficiency
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-9)


def test_superadditivity_refuses_an_unpacked_layout(monkeypatch):
    from rcalab import bounds

    def stacked(n, k, r, t, d):
        # every block on the first one: the fattened blocks overlap
        layout = bootstrap_layout(n, k, r, t, d)
        return dataclasses.replace(layout, blocks=(layout.blocks[0],) * len(layout.blocks))

    monkeypatch.setattr(bounds, "bootstrap_layout", stacked)
    block = WindowDistribution(hypercube(1), Z2, [0.7, 0.3])
    with pytest.raises(AssertionError, match="overlap"):
        check_block_superadditivity(block, 2, r=1, t=1)


def test_superadditivity_2d():
    rng = np.random.default_rng(10)
    block = WindowDistribution(hypercube(1, 2), Z2, rng.dirichlet([1, 1]))
    rep = check_block_superadditivity(block, 2, r=1, t=0)
    assert rep.ok and rep.params["d"] == 2 and rep.params["m"] == 2


def test_main_theorem_bound():
    assert main_theorem_bound(9, 3, 1.0, 0.5, 1) == pytest.approx(math.exp(-1.5))
    assert main_theorem_bound(4, 10, 1.0, 0.1, 2) == pytest.approx(2 * math.exp(-1.0))
    far = main_theorem_bound(4, 1e6, 1.0, 0.1, 2)
    assert math.isfinite(far) and 0.0 <= far < 1e-300
    big_t = main_theorem_bound(4, 500, 1.0, 0.1, 2)
    assert big_t < 1e-20
    with pytest.raises(ValueError):
        main_theorem_bound(4, 1, -1.0, 0.1, 2)
    # NaN passes a "<= 0" test
    with pytest.raises(ValueError):
        main_theorem_bound(4, 1, math.nan, 0.1, 2)
    with pytest.raises(ValueError):
        main_theorem_bound(4, 1, 1.0, math.nan, 2)
    assert theorem_applicable(10, 4, 2.0, 1.0)
    assert not theorem_applicable(2, 4, 2.0, 1.0)


def test_hypercube_leakage_matches_set_construction():
    from rcalab.bounds import hypercube_leakage
    from rcalab.rules import build_linear

    rule2d = build_linear(Z2, {(0, 1): 1, (1, 0): 1, (-1, 0): 1, (0, -1): 1})
    for d, rule in ((1, build_elementary(90)), (2, rule2d)):
        for n in (1, 2, 3, 5):
            j = hypercube(n, d)
            c_set, ct_set = leakage_constants(j, rule, Q91)
            c_closed, ct_closed = hypercube_leakage(n, d, rule.radius, math.log(2), 0.2)
            assert c_set == pytest.approx(c_closed, abs=1e-12)
            assert ct_set == pytest.approx(ct_closed, abs=1e-10)


def test_proof_rate_constants_dominate():
    from rcalab.bounds import hypercube_leakage

    r90 = build_elementary(90)
    a1, b1, c1 = proof_rate_constants(r90, Q91, n_max=128)
    a0, b0 = equilibrium_constants(Q91)
    assert a1 == pytest.approx(a0)
    for n in (1, 2, 5, 17, 128, 5000):
        _, c_tilde = hypercube_leakage(n, 1, 1, math.log(2), 0.2)
        g = a0 * math.log(n / c_tilde) + b0
        assert a1 * math.log(n) + b1 >= g - 1e-9
        assert c1 >= 2 * c_tilde - 1e-9


def test_proof_rate_constants_2d():
    from rcalab.bounds import hypercube_leakage
    from rcalab.rules import build_linear

    rule2d = build_linear(Z2, {(0, 1): 1, (1, 0): 1, (-1, 0): 1, (0, -1): 1})
    a1, b1, c1 = proof_rate_constants(rule2d, Q91, n_max=256)
    a0, b0 = equilibrium_constants(Q91)
    for n in (1, 3, 10, 100, 256, 5000):
        _, c_tilde = hypercube_leakage(n, 2, 1, math.log(2), 0.2)
        g = a0 * math.log(n ** 2 / c_tilde) + b0
        assert a1 * math.log(n) + b1 >= g - 1e-9
        assert c1 * n >= 2 * c_tilde - 1e-9


def test_bound_report_json():
    rep = BoundReport("x/y", np.float64(1.0), np.float64(2.0), np.bool_(True), {"k": np.int64(3)})
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc == {"claim": "x/y", "lhs": 1.0, "rhs": 2.0, "ok": True, "params": {"k": 3}}
