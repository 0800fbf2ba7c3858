import math

import numpy as np
import pytest

from rcalab.entropy import CapExceededError, WindowDistribution, entropy, tv_to_uniform
from rcalab.exact import (
    ConeProblem,
    check_evolution_bound,
    check_surjective_step_bound,
    convolve_noise,
    dependence_cone,
    exact_window_marginal,
    leakage_constants,
    push_deterministic,
)
from rcalab.lattice import Alphabet, CellSet, hypercube, moore
from rcalab.noise import additive_noise
from rcalab.rules import build_elementary, build_linear

Z2 = Alphabet((2,))
Q91 = additive_noise(Z2, [0.9, 0.1])
IDENT = build_linear(Z2, {0: 1})
R90 = build_elementary(90)


def test_dependence_cone_examples():
    assert dependence_cone(hypercube(2), R90, 3).cells == tuple((i,) for i in range(-3, 5))
    j = CellSet([4, 7])
    assert dependence_cone(j, R90, 0) == j
    rule2d = build_linear(Z2, {(0, 1): 1, (1, 0): 1, (-1, 0): 1, (0, -1): 1})
    assert len(dependence_cone(CellSet([(0, 0)]), rule2d, 2)) == 25


def test_identity_chain_closed_form():
    for t in range(0, 8):
        marginal = exact_window_marginal(ConeProblem(IDENT, Q91, CellSet([0]), t, 0))
        p1 = (1 - 0.8 ** t) / 2
        assert marginal.probs == pytest.approx([1 - p1, p1], abs=1e-14)


def test_rule90_one_step_from_zeros():
    marginal = exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 1, np.zeros(3, int)))
    assert marginal.probs == pytest.approx([0.9, 0.1], abs=1e-15)


def test_initial_forms_agree():
    cone = dependence_cone(CellSet([0]), R90, 2)
    pattern = np.array([0, 1, 1, 0, 1])
    code = int("".join(map(str, pattern)), 2)
    a = exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 2, pattern))
    b = exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 2, code))
    point = WindowDistribution.point_mass(cone, Z2, code)
    c = exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 2, point))
    assert np.allclose(a.probs, b.probs) and np.allclose(b.probs, c.probs)


def test_marginal_consistency():
    # law on A restricted to A' equals the law computed directly for A'
    rng = np.random.default_rng(0)
    big = hypercube(3)
    small = CellSet([0, 2])
    t = 2
    cone_big = dependence_cone(big, R90, t)
    init = rng.integers(0, 2, size=len(cone_big))
    full = exact_window_marginal(ConeProblem(R90, Q91, big, t, init))
    restricted = full.marginal(small)
    cone_small = dependence_cone(small, R90, t)
    pick = [cone_big.cells.index(c) for c in cone_small.cells]
    direct = exact_window_marginal(ConeProblem(R90, Q91, small, t, init[pick]))
    assert np.abs(restricted.probs - direct.probs).max() < 1e-10


def test_uniform_fixed_point():
    # uniform law on the cone stays uniform through one (rule, noise) step of
    # a surjective rule; noise alone preserves uniformity by channel algebra
    for rule in (R90, build_elementary(102), build_elementary(150)):
        window = hypercube(2)
        cone = moore(window, 1)
        uniform = WindowDistribution.uniform(cone, Z2)
        stepped = convolve_noise(push_deterministic(uniform, rule, window), Q91)
        assert np.abs(stepped.probs - 0.25).max() < 1e-12
    # non-surjective rule does not preserve uniformity
    r110 = build_elementary(110)
    window = hypercube(2)
    uniform = WindowDistribution.uniform(moore(window, 1), Z2)
    pushed = push_deterministic(uniform, r110, window)
    assert np.abs(pushed.probs - 0.25).max() > 0.01


def test_leakage_constants_examples():
    c, ct = leakage_constants(hypercube(4), R90, Q91)
    assert c == pytest.approx(6 * math.log(2), abs=1e-12)
    assert ct == pytest.approx(24 * math.log(2), abs=1e-12)
    rule2d = build_linear(Z2, {(0, 1): 1, (1, 0): 1, (-1, 0): 1, (0, -1): 1})
    c2, _ = leakage_constants(hypercube(2, 2), rule2d, Q91)
    assert c2 == pytest.approx(44 * math.log(2), abs=1e-12)


def test_evolution_bound_vacuous_cases():
    # t = 0: rhs = -c_tilde <= 0 <= lhs
    problem = ConeProblem(R90, Q91, hypercube(1), 0, 0)
    res = check_evolution_bound(problem, exact_window_marginal(problem))
    assert res.ok and res.rhs <= 0 <= res.lhs + 1e-12
    # single cell: c_tilde = 24 ln 2 > h_max, bound vacuous but ok
    problem = ConeProblem(R90, Q91, hypercube(1), 2, np.zeros(5, int))
    res = check_evolution_bound(problem, exact_window_marginal(problem))
    assert res.rhs < 0 and res.ok


def test_evolution_bound_rule90():
    problem = ConeProblem(R90, Q91, hypercube(4), 3, np.zeros(10, int))
    law = exact_window_marginal(problem)
    res = check_evolution_bound(problem, law)
    assert res.ok
    assert res.lhs == pytest.approx(entropy(law))


def test_evolution_bound_rejects_law_off_window():
    problem = ConeProblem(R90, Q91, hypercube(2), 1, np.zeros(4, int))
    other = exact_window_marginal(ConeProblem(R90, Q91, hypercube(1), 1, np.zeros(3, int)))
    with pytest.raises(ValueError):
        check_evolution_bound(problem, other)


def test_evolution_bound_requires_surjective():
    r110 = build_elementary(110)
    problem = ConeProblem(r110, Q91, hypercube(1), 1, np.zeros(3, int))
    with pytest.raises(ValueError):
        check_evolution_bound(problem, exact_window_marginal(problem))


def test_surjective_step_bound_small_windows():
    # H((FX)_J) >= H(X_J) - c(J) for surjective rules, random initial laws
    rng = np.random.default_rng(1)
    for code in (90, 102, 150):
        rule = build_elementary(code)
        for n in (1, 2, 3):
            J = hypercube(n)
            cone = moore(J, 2)
            for _ in range(5):
                probs = rng.dirichlet(np.ones(2 ** len(cone)))
                law = WindowDistribution(cone, Z2, probs)
                res = check_surjective_step_bound(rule, J, law)
                assert res.ok, (code, n)


def test_sharpened_entropy_recursion():
    # H(X^t_J) >= (1-kappa)^t H(X^0_J) + [1-(1-kappa)^t] |J| h_max - c_tilde(J)
    # holds engine-exactly for arbitrary initial laws on the cone (any
    # extension off the cone gives the same window marginals)
    rng = np.random.default_rng(6)
    window = hypercube(2)
    for t in (1, 2, 3):
        cone = dependence_cone(window, R90, t)
        law = WindowDistribution(cone, Z2, rng.dirichlet(np.ones(2 ** len(cone))))
        h0 = entropy(law.marginal(window))
        ht = entropy(exact_window_marginal(ConeProblem(R90, Q91, window, t, law)))
        _, c_tilde = leakage_constants(window, R90, Q91)
        rhs = 0.8 ** t * h0 + (1 - 0.8 ** t) * 2 * math.log(2) - c_tilde
        assert ht >= rhs - 1e-9


def test_exact_distance_curve_monotone():
    # the exact-engine distance to uniform is non-increasing in t
    curve = []
    for t in range(6):
        marg = exact_window_marginal(
            ConeProblem(R90, Q91, hypercube(2), t, np.zeros(2 + 2 * t, int))
        )
        curve.append(tv_to_uniform(marg))
    assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))


def test_pinsker_on_exact_outputs():
    for t in range(5):
        marginal = exact_window_marginal(ConeProblem(R90, Q91, hypercube(2), t, np.zeros(2 + 2 * t, int)))
        from rcalab.entropy import pinsker_bound

        assert tv_to_uniform(marginal) <= pinsker_bound(marginal) + 1e-12


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        ConeProblem(R90, Q91, hypercube(2), 20, 0, cap=2 ** 16)


def test_renormalization_drift():
    # long horizons stay normalized
    marginal = exact_window_marginal(ConeProblem(IDENT, Q91, CellSet([0]), 200, 0))
    assert marginal.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert marginal.probs == pytest.approx([0.5, 0.5], abs=1e-12)
