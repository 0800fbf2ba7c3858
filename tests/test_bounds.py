import json
import math

import numpy as np
import pytest

from rcalab.bounds import (
    BoundReport,
    bootstrap_layout,
    check_block_superadditivity,
    check_noise_lemma,
    equilibrium_constants,
    fit_decay_constants,
    main_theorem_bound,
    noise_lemma_suite,
    proof_rate_constants,
    theorem_applicable,
)
from rcalab.entropy import WindowDistribution
from rcalab.exact import ConeProblem, exact_window_marginal, leakage_constants
from rcalab.lattice import Alphabet, hypercube, moore
from rcalab.noise import additive_noise
from rcalab.rules import build_elementary

Z2 = Alphabet((2,))
Z3 = Alphabet((3,))
Q91 = additive_noise(Z2, [0.9, 0.1])


def test_noise_lemma_point_mass():
    rep = check_noise_lemma(np.array([1.0, 0.0]), Q91, "scalar")
    assert rep.ok
    assert rep.lhs == pytest.approx(0.3250829733914482, abs=1e-12)
    assert rep.rhs == pytest.approx(0.2 * math.log(2), abs=1e-15)


def test_noise_lemma_uniform_equality():
    rep = check_noise_lemma(np.array([0.5, 0.5]), Q91, "scalar")
    assert rep.ok
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)
    assert rep.lhs == pytest.approx(math.log(2), abs=1e-12)


def test_noise_lemma_joint_form():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(8))
    rep = check_noise_lemma(p, Q91, "joint")
    assert rep.ok
    # rhs uses n * kappa * h_max
    from rcalab.entropy import entropy_vec

    assert rep.rhs == pytest.approx(3 * 0.2 * math.log(2) + 0.8 * entropy_vec(p))


def test_noise_lemma_conditional_form():
    rng = np.random.default_rng(1)
    joint = rng.dirichlet(np.ones(6)).reshape(3, 2)
    rep = check_noise_lemma(joint, Q91, "conditional")
    assert rep.ok


def test_noise_lemma_suite_small():
    reports = noise_lemma_suite([[2], [3]], 50, seed=12)
    assert len(reports) == 2 * 50 * 3
    assert all(r.ok for r in reports)


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
        lay = bootstrap_layout(n, k, r, t, d)  # raises on any violation
        assert lay.m == k * (n + 2 * r * t)
        assert len(lay.blocks) == k ** d


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
    assert theorem_applicable(10, 4, 2.0, 1.0)
    assert not theorem_applicable(2, 4, 2.0, 1.0)


def test_fit_decay_closed_form():
    fit = fit_decay_constants([(t, 0.8 ** t / 2) for t in range(12)])
    assert fit.ok
    assert fit.beta == pytest.approx(-math.log(0.8), abs=1e-9)
    assert fit.alpha == pytest.approx(0.5, abs=1e-9)


def test_fit_decay_constant_curve():
    fit = fit_decay_constants([(t, 0.25) for t in range(6)])
    assert fit.beta == pytest.approx(0.0, abs=1e-12)
    assert not fit.ok


def test_fit_decay_needs_points():
    with pytest.raises(ValueError):
        fit_decay_constants([(0, 1.0), (1, 0.0), (2, -1.0)])


def test_fit_decay_on_exact_rule90_curve():
    from rcalab.entropy import tv_to_uniform

    curve = []
    for t in range(1, 7):
        marg = exact_window_marginal(
            ConeProblem(build_elementary(90), Q91, hypercube(2), t, np.zeros(2 + 2 * t, int))
        )
        curve.append((t, tv_to_uniform(marg)))
    fit = fit_decay_constants(curve)
    assert fit.ok and fit.beta > 0


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
