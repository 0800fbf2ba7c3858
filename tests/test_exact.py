import math

import numpy as np
import pytest

from rcalab import analysis
from rcalab.entropy import MEMORY_CAP, CapExceededError, WindowDistribution, entropy, tv_to_uniform
from rcalab.exact import (
    ConeProblem,
    _light_cones,
    _neighbour_slots,
    check_evolution_bound,
    check_surjective_step_bound,
    convolve_noise,
    dependence_cone,
    exact_window_marginal,
    leakage_constants,
    push_deterministic,
)
from rcalab.lattice import Alphabet, CellSet, decode_patterns, hypercube, moore, pattern_strides
from rcalab.noise import additive_noise, channel_matrix, local_kernel, permutation_noise
from rcalab.rules import LocalRule, build_elementary, build_linear, lift_second_order

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
        marginal = exact_window_marginal(ConeProblem(IDENT, Q91, CellSet([0]), t, np.zeros(1, int)))[-1]
        p1 = (1 - 0.8 ** t) / 2
        assert marginal.probs == pytest.approx([1 - p1, p1], abs=1e-14)


def test_rule90_one_step_from_zeros():
    marginal = exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 1, np.zeros(3, int)))[-1]
    assert marginal.probs == pytest.approx([0.9, 0.1], abs=1e-15)


def test_initial_forms_agree():
    cone = dependence_cone(CellSet([0]), R90, 2)
    pattern = np.array([0, 1, 1, 0, 1])
    code = int("".join(map(str, pattern)), 2)
    a = exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 2, pattern))[-1]
    point = WindowDistribution.point_mass(cone, Z2, code)
    b = exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 2, point))[-1]
    assert np.allclose(a.probs, b.probs)


def test_point_initial_outside_alphabet_rejected():
    # three cone cells, symbols 0..1; an int is not a symbol array
    for initial in (8, -1, np.array([0, 2, 0]), np.array([0, -1, 0])):
        with pytest.raises(ValueError):
            exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 1, initial))[-1]
    other = WindowDistribution.uniform(hypercube(2), Z2)
    with pytest.raises(ValueError):
        exact_window_marginal(ConeProblem(R90, Q91, CellSet([0]), 1, other))[-1]


def test_marginal_consistency():
    # law on A restricted to A' equals the law computed directly for A'
    rng = np.random.default_rng(0)
    big = hypercube(3)
    small = CellSet([0, 2])
    t = 2
    cone_big = dependence_cone(big, R90, t)
    init = rng.integers(0, 2, size=len(cone_big))
    full = exact_window_marginal(ConeProblem(R90, Q91, big, t, init))[-1]
    restricted = full.marginal(small)
    cone_small = dependence_cone(small, R90, t)
    pick = [cone_big.cells.index(c) for c in cone_small.cells]
    direct = exact_window_marginal(ConeProblem(R90, Q91, small, t, init[pick]))[-1]
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
    problem = ConeProblem(R90, Q91, hypercube(1), 0, np.zeros(1, int))
    res = check_evolution_bound(problem, problem.horizon, exact_window_marginal(problem)[-1], True)
    assert res.ok and res.rhs <= 0 <= res.lhs + 1e-12
    # single cell: c_tilde = 24 ln 2 > h_max, bound vacuous but ok
    problem = ConeProblem(R90, Q91, hypercube(1), 2, np.zeros(5, int))
    res = check_evolution_bound(problem, problem.horizon, exact_window_marginal(problem)[-1], True)
    assert res.rhs < 0 and res.ok


def test_evolution_bound_rule90():
    problem = ConeProblem(R90, Q91, hypercube(4), 3, np.zeros(10, int))
    law = exact_window_marginal(problem)[-1]
    res = check_evolution_bound(problem, problem.horizon, law, True)
    assert res.ok
    assert res.lhs == pytest.approx(entropy(law))


def test_evolution_bound_rejects_law_off_window():
    problem = ConeProblem(R90, Q91, hypercube(2), 1, np.zeros(4, int))
    other = exact_window_marginal(ConeProblem(R90, Q91, hypercube(1), 1, np.zeros(3, int)))[-1]
    with pytest.raises(ValueError):
        check_evolution_bound(problem, problem.horizon, other, True)


def test_evolution_bound_reads_each_step_of_the_curve():
    # the floor at t uses (1 - kappa)^t, and a step past the horizon is refused
    problem = ConeProblem(R90, Q91, hypercube(4), 3, np.zeros(10, int))
    curve = exact_window_marginal(problem)
    _, c_tilde = leakage_constants(hypercube(4), R90, Q91)
    for t, law in enumerate(curve):
        res = check_evolution_bound(problem, t, law, True)
        assert res.ok and res.rhs == pytest.approx((1 - 0.8 ** t) * 4 * math.log(2) - c_tilde, abs=1e-12)
    for t in (-1, 4):
        with pytest.raises(ValueError, match="outside 0..3"):
            check_evolution_bound(problem, t, curve[-1], True)


def test_evolution_bound_requires_surjective():
    r110 = build_elementary(110)
    problem = ConeProblem(r110, Q91, hypercube(1), 1, np.zeros(3, int))
    with pytest.raises(ValueError, match="surjective rules only"):
        check_evolution_bound(problem, problem.horizon, exact_window_marginal(problem)[-1], analysis.test_surjective(r110))


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
        ht = entropy(exact_window_marginal(ConeProblem(R90, Q91, window, t, law))[-1])
        _, c_tilde = leakage_constants(window, R90, Q91)
        rhs = 0.8 ** t * h0 + (1 - 0.8 ** t) * 2 * math.log(2) - c_tilde
        assert ht >= rhs - 1e-9


def test_exact_distance_curve_monotone():
    # the exact-engine distance to uniform is non-increasing in t
    curve = []
    for t in range(6):
        marg = exact_window_marginal(
            ConeProblem(R90, Q91, hypercube(2), t, np.zeros(2 + 2 * t, int))
        )[-1]
        curve.append(tv_to_uniform(marg))
    assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))


def test_pinsker_on_exact_outputs():
    for t in range(5):
        marginal = exact_window_marginal(ConeProblem(R90, Q91, hypercube(2), t, np.zeros(2 + 2 * t, int)))[-1]
        from rcalab.entropy import pinsker_bound

        assert tv_to_uniform(marginal) <= pinsker_bound(marginal) + 1e-12


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        ConeProblem(R90, Q91, hypercube(2), 20, np.zeros(42, int))


def test_renormalization_drift():
    # long horizons stay normalized
    marginal = exact_window_marginal(ConeProblem(IDENT, Q91, CellSet([0]), 200, np.zeros(1, int)))[-1]
    assert marginal.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert marginal.probs == pytest.approx([0.5, 0.5], abs=1e-12)


# Reference engine: the dependence-cone enumeration the kernel sweep replaced.
# It decodes every source pattern, gathers each target cell's neighbourhood,
# looks the image up in the rule table and bincounts the image codes; noise
# is then applied one site axis at a time.


def _initial_law(problem):
    """The initial as a law on the problem's cone."""
    symbols = problem.initial_symbols()
    if symbols is None:
        return problem.initial
    code = int(symbols @ pattern_strides(len(symbols), problem.rule.alphabet.size))
    return WindowDistribution.point_mass(problem.cone(), problem.rule.alphabet, code)


def _enumerate_push(dist, rule, target):
    size = rule.alphabet.size
    pos = {c: i for i, c in enumerate(dist.window.cells)}
    gather = np.array(
        [[pos[tuple(c + o for c, o in zip(cell, off))] for off in rule.neighborhood] for cell in target.cells]
    )
    slots = decode_patterns(np.arange(dist.probs.size), dist.n_cells, size)
    images = rule.table[slots[:, gather] @ pattern_strides(len(rule.neighborhood), size)]
    out = np.bincount(
        images @ pattern_strides(len(target), size), weights=dist.probs, minlength=size ** len(target)
    )
    return WindowDistribution(target, rule.alphabet, out)


def _noise_per_site(probs, channel, n_sites):
    tensor = probs.reshape((channel.shape[0],) * n_sites)
    for axis in range(n_sites):
        tensor = np.moveaxis(np.tensordot(tensor, channel, axes=([axis], [0])), -1, axis)
    return tensor.reshape(-1)


def _enumerate_marginal(problem):
    dist = _initial_law(problem)
    for s in range(problem.horizon, 0, -1):
        target = dependence_cone(problem.window, problem.rule, s - 1)
        pushed = _enumerate_push(dist, problem.rule, target)
        probs = _noise_per_site(pushed.probs, channel_matrix(problem.noise), len(target))
        dist = WindowDistribution(target, pushed.alphabet, probs / probs.sum())
    return dist


def _random_rule(alphabet, offsets, seed):
    table = np.random.default_rng(seed).integers(0, alphabet.size, size=alphabet.size ** len(offsets))
    return LocalRule(alphabet, offsets, table)


def _random_noise(alphabet, seed):
    return additive_noise(alphabet, np.random.default_rng(seed).dirichlet(np.ones(alphabet.size)) * 0.9 + 0.1 / alphabet.size)


Z3 = Alphabet((3,))
VON_NEUMANN = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
MOORE_2D = tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1))

# (rule, window, horizons): cones stay below 2**16 states
AGREEMENT_CASES = {
    "binary-r1": (_random_rule(Z2, [(-1,), (0,), (1,)], 1), hypercube(3), (0, 1, 2, 4)),
    "binary-r2": (_random_rule(Z2, [(o,) for o in range(-2, 3)], 2), hypercube(2), (0, 1, 2, 3)),
    "binary-one-sided": (_random_rule(Z2, [(0,), (1,)], 3), hypercube(2), (1, 3)),
    "z3-linear": (build_linear(Z3, {-1: 1, 0: 2, 1: 1}), hypercube(2), (0, 1, 2, 3)),
    "z2xz2-lift": (lift_second_order(build_elementary(30)), hypercube(2), (0, 1, 2)),
    "2d-von-neumann": (_random_rule(Z2, VON_NEUMANN, 4), hypercube(2, 2), (0, 1)),
    "2d-moore": (_random_rule(Z2, MOORE_2D, 5), hypercube(2, 2), (0, 1)),
    "2d-moore-single-cell": (_random_rule(Z2, MOORE_2D, 6), hypercube(1, 2), (1,)),
}


def _initials(rule, window, t, seed):
    """Symbol-array and WindowDistribution initials on the cone."""
    cone = dependence_cone(window, rule, t)
    rng = np.random.default_rng(seed)
    size = rule.alphabet.size
    symbols = rng.integers(0, size, size=len(cone))
    law = WindowDistribution(cone, rule.alphabet, rng.dirichlet(np.ones(size ** len(cone))))
    return {"symbols": symbols, "law": law}


@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_marginal_agrees_with_enumeration(name):
    rule, window, horizons = AGREEMENT_CASES[name]
    noise = _random_noise(rule.alphabet, 7)
    for t in horizons:
        for form, initial in _initials(rule, window, t, t).items():
            problem = ConeProblem(rule, noise, window, t, initial)
            got = exact_window_marginal(problem)[-1]
            want = _enumerate_marginal(problem)
            assert got.window == want.window == window
            assert np.abs(got.probs - want.probs).max() < 1e-12, (name, t, form)
            assert np.abs(got.probs - _einsum_marginal(problem).probs).max() < 1e-12, (name, t, form)


def test_marginal_agrees_with_enumeration_permutation_noise():
    rule = build_linear(Z3, {-1: 1, 1: 1})
    noise = permutation_noise(Z3, [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]], [0.7, 0.1, 0.1, 0.1])
    for t in (1, 2, 3):
        for initial in _initials(rule, hypercube(2), t, 10 + t).values():
            problem = ConeProblem(rule, noise, hypercube(2), t, initial)
            got = exact_window_marginal(problem)[-1].probs
            assert np.abs(got - _enumerate_marginal(problem).probs).max() < 1e-12
            assert np.abs(got - _einsum_marginal(problem).probs).max() < 1e-12


def test_moore_s2_at_t2_sweeps_only_the_t1_cone():
    # the horizon cone has 36 cells, 2^36 states; from a point mass the sweep
    # builds at most the 16-cell cone at t = 1, and its law there, pushed one
    # step by enumeration, is the window law at t = 2
    rule, window = _random_rule(Z2, MOORE_2D, 8), hypercube(2, 2)
    noise = _random_noise(Z2, 9)
    symbols = np.random.default_rng(10).integers(0, 2, size=36)
    cone1, cone2 = (dependence_cone(window, rule, t) for t in (1, 2))
    at_t1 = exact_window_marginal(ConeProblem(rule, noise, cone1, 1, symbols))[-1]
    assert len(cone2) == 36 and len(cone1) == 16
    got = exact_window_marginal(ConeProblem(rule, noise, window, 2, symbols))[-1].probs
    want = _enumerate_marginal(ConeProblem(rule, noise, window, 1, at_t1)).probs
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_push_deterministic_agrees_with_enumeration(name):
    rule, window, _ = AGREEMENT_CASES[name]
    rng = np.random.default_rng(11)
    size = rule.alphabet.size
    for source, target in ((moore(window, rule.radius), window), (moore(window, 2 * rule.radius), window)):
        if size ** len(source) > 2 ** 16:
            continue
        law = WindowDistribution(source, rule.alphabet, rng.dirichlet(np.ones(size ** len(source))))
        got = push_deterministic(law, rule, target)
        assert got.window == target
        assert np.abs(got.probs - _enumerate_push(law, rule, target).probs).max() < 1e-12, name


def test_push_deterministic_rejects_target_outside_source():
    law = WindowDistribution.uniform(hypercube(3), Z2)
    with pytest.raises(ValueError):
        push_deterministic(law, R90, hypercube(2))


# Oracle for the matmul sweep: the einsum contraction it replaced.  Each
# target cell is one einsum that appends the target's output axis and sums
# out every source axis whose last user it is; source axes no target uses go
# with the first target.  einsum labels must be < 52, so freed labels are
# recycled for output axes.


def _einsum_sweep(dist, rule, target, kernel):
    size = rule.alphabet.size
    uses = _neighbour_slots(dist.window, rule, target).tolist()
    last = dict.fromkeys(range(dist.n_cells), 0)
    last.update((a, j) for j, axes in enumerate(uses) for a in axes)
    tensor = dist.probs.reshape((size,) * dist.n_cells)
    current, free = list(range(dist.n_cells)), list(range(51, dist.n_cells - 1, -1))
    kernel = kernel.reshape((size,) * (len(rule.neighborhood) + 1))
    for j, axes in enumerate(uses):
        done = {a for a, k in last.items() if k == j}
        out = [lab for lab in current if lab not in done] + [free.pop()]
        tensor = np.einsum(tensor, current, kernel, axes + out[-1:], out)
        current = out
        free.extend(done)
    return WindowDistribution(target, rule.alphabet, tensor.reshape(-1))


def _einsum_marginal(problem):
    kernel = local_kernel(problem.rule, problem.noise)
    dist = _initial_law(problem)
    for s in range(problem.horizon, 0, -1):
        dist = _einsum_sweep(dist, problem.rule, dependence_cone(problem.window, problem.rule, s - 1), kernel)
    return dist


Z2XZ2 = Alphabet((2, 2))
Z3_PERMS = [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]]

# (alphabet, offsets, target window): sources stay below 2**16 states
SWEEP_CASES = {
    "1d-contiguous-r1": (Z2, [(-1,), (0,), (1,)], hypercube(4)),
    "1d-contiguous-r2": (Z2, [(o,) for o in range(-2, 3)], hypercube(3)),
    "1d-sparse": (Z2, [(-2,), (0,), (2,)], hypercube(3)),
    "1d-one-sided-sparse": (Z2, [(0,), (3,)], CellSet([0, 2])),
    "2d-von-neumann": (Z2, VON_NEUMANN, CellSet([(0, 0), (0, 1), (1, 0)])),
    "2d-von-neumann-rect": (Z2, VON_NEUMANN, CellSet([(0, j) for j in range(3)])),
    "z3": (Z3, [(-1,), (0,), (1,)], hypercube(2)),
    "z2xz2": (Z2XZ2, [(-1,), (0,), (1,)], hypercube(2)),
}


def _sweep_noise(name, alphabet, seed):
    if name.startswith("z3"):
        q = np.random.default_rng(seed).dirichlet(np.ones(len(Z3_PERMS))) * 0.8 + 0.05
        return permutation_noise(Z3, Z3_PERMS, q)
    return _random_noise(alphabet, seed)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_matches_einsum_oracle(name, seed):
    # whole marginals are checked against the oracle with the enumeration
    # tests above; this runs single sweeps on shapes those do not cover
    alphabet, offsets, window = SWEEP_CASES[name]
    rule = _random_rule(alphabet, offsets, 100 + seed)
    noise = _sweep_noise(name, alphabet, seed)
    kernel = local_kernel(rule, noise)
    rng = np.random.default_rng(seed)
    size = alphabet.size
    # one deterministic sweep from a law on a source window wider than
    # target + N, so some source axes have no user
    source = moore(window, rule.radius + 1)
    if size ** len(source) > 2 ** 16:
        source = moore(window, rule.radius)
    law = WindowDistribution(source, alphabet, rng.dirichlet(np.ones(size ** len(source))))
    got = push_deterministic(law, rule, window)
    assert got.window == window
    assert np.abs(got.probs - _einsum_sweep(law, rule, window, np.eye(size)[rule.table]).probs).max() < 1e-12
    # the noisy kernel through a horizon-1 solve, from a law on moore(A, r)
    law = law.marginal(moore(window, rule.radius))
    got = exact_window_marginal(ConeProblem(rule, noise, window, 1, law))[-1]
    assert np.abs(got.probs - _einsum_sweep(law, rule, window, kernel).probs).max() < 1e-12


# The sweep runs on the light cones A + s(N u {0}), the cells whose state s
# or fewer steps before the end can reach A; for a full Moore box N they are
# moore(A, r*s), and when 0 is in N they are A + sN.


def _window_plus(A, offsets, s):
    """A + s·offsets."""
    cells = set(A.cells)
    for _ in range(s):
        cells = {tuple(c + o for c, o in zip(cell, off)) for cell in cells for off in offsets}
    return CellSet(sorted(cells), dim=A.dim)


ONE_SIDED_Z3 = build_linear(Z3, {0: 1, 1: 1})
VON_NEUMANN_Z3 = build_linear(Z3, {c: 1 for c in VON_NEUMANN})

# rules whose neighbourhood is not the full Moore box, (rule, window, horizons)
LIGHT_CONE_CASES = {
    "z3-one-sided": (ONE_SIDED_Z3, hypercube(2), (1, 2, 4, 6)),
    "binary-sparse": (_random_rule(Z2, [(-2,), (0,), (2,)], 12), CellSet([0, 3]), (1, 2, 3)),
    "binary-one-sided-sparse": (_random_rule(Z2, [(0,), (3,)], 13), CellSet([0, 2]), (1, 2, 3)),
    "2d-von-neumann": (_random_rule(Z2, VON_NEUMANN, 14), CellSet([(0, 0), (0, 1)]), (1, 2)),
    "2d-von-neumann-z3": (VON_NEUMANN_Z3, hypercube(1, 2), (1, 2)),
}
FULL_MOORE_CASES = {
    name: AGREEMENT_CASES[name]
    for name in ("binary-r1", "binary-r2", "z3-linear", "z2xz2-lift", "2d-moore", "2d-moore-single-cell")
}
# rules whose neighbourhood omits 0: their cones are larger than A + sN
NO_ZERO_CASES = {
    "binary-1-2": (_random_rule(Z2, [(1,), (2,)], 18), hypercube(2), (1, 2, 3)),
    "binary-minus1-plus1": (_random_rule(Z2, [(-1,), (1,)], 19), hypercube(2), (1, 2, 4)),
}


@pytest.mark.parametrize("name", sorted(LIGHT_CONE_CASES) + sorted(FULL_MOORE_CASES) + sorted(NO_ZERO_CASES))
def test_light_cones_are_window_plus_s_neighbourhoods(name):
    rule, window, horizons = {**LIGHT_CONE_CASES, **FULL_MOORE_CASES, **NO_ZERO_CASES}[name]
    cones = _light_cones(window, rule, max(horizons))
    balls = [dependence_cone(window, rule, s) for s in range(max(horizons) + 1)]
    offsets = {*rule.neighborhood, (0,) * window.dim}
    assert cones == [_window_plus(window, offsets, s) for s in range(max(horizons) + 1)]
    assert all(cone.issubset(ball) for cone, ball in zip(cones, balls))
    if name in FULL_MOORE_CASES:
        assert cones == balls
    elif name in LIGHT_CONE_CASES:
        assert len(cones[-1]) < len(balls[-1])


@pytest.mark.parametrize("name", sorted(NO_ZERO_CASES))
def test_last_light_cone_is_the_union_of_window_plus_k_neighbourhoods(name):
    # s steps before the end a one-pass curve reads X_A and needs A + kN for
    # every k <= s; that union is the cone A + s(N u {0}) itself, and a shift
    # of the rule only relabels its cells, so no shift makes it smaller
    rule, window, horizons = NO_ZERO_CASES[name]
    for s in range(max(horizons) + 1):
        union = set().union(*(_window_plus(window, rule.neighborhood, k).cells for k in range(s + 1)))
        assert _light_cones(window, rule, s)[-1] == CellSet(sorted(union), dim=window.dim), (name, s)


def _small_initials(rule, window, t, seed):
    """A symbol-array initial on the cone, and a law there when it has at
    most 2^16 states."""
    cone, size = dependence_cone(window, rule, t), rule.alphabet.size
    rng = np.random.default_rng(seed)
    initials = {"symbols": rng.integers(0, size, size=len(cone))}
    if size ** len(cone) <= 2 ** 16:
        initials["law"] = WindowDistribution(cone, rule.alphabet, rng.dirichlet(np.ones(size ** len(cone))))
    return initials


def _problem_at(problem, t):
    """The problem of the same instance at horizon t, its initial restricted
    to moore(A, r*t)."""
    sub = dependence_cone(problem.window, problem.rule, t)
    symbols = problem.initial_symbols()
    if symbols is None:
        initial = problem.initial.marginal(sub)
    else:
        at = {c: i for i, c in enumerate(problem.cone().cells)}
        initial = symbols[[at[c] for c in sub.cells]]
    return ConeProblem(problem.rule, problem.noise, problem.window, t, initial)


@pytest.mark.parametrize("name", sorted(NO_ZERO_CASES))
def test_curve_without_zero_in_neighbourhood_agrees_with_enumeration(name):
    rule, window, horizons = NO_ZERO_CASES[name]
    noise = _random_noise(rule.alphabet, 22)
    for T in horizons:
        for form, initial in _small_initials(rule, window, T, 40 + T).items():
            problem = ConeProblem(rule, noise, window, T, initial)
            curve = exact_window_marginal(problem)
            assert len(curve) == T + 1 and all(law.window == window for law in curve)
            for t, law in enumerate(curve):
                want = _enumerate_marginal(_problem_at(problem, t)).probs
                assert np.abs(law.probs - want).max() < 1e-12, (name, T, t, form)


@pytest.mark.parametrize("name", sorted({**AGREEMENT_CASES, **LIGHT_CONE_CASES}))
def test_curve_agrees_with_per_t_solves(name):
    # t = T is the horizon's own law; each earlier t is a marginal of the
    # cone law after t steps, equal to the solve at horizon t up to rounding
    rule, window, horizons = {**AGREEMENT_CASES, **LIGHT_CONE_CASES}[name]
    noise, T = _random_noise(rule.alphabet, 23), max(horizons)
    for form, initial in _small_initials(rule, window, T, 50).items():
        problem = ConeProblem(rule, noise, window, T, initial)
        curve = exact_window_marginal(problem)
        assert len(curve) == T + 1
        for t, law in enumerate(curve):
            want = exact_window_marginal(_problem_at(problem, t))[-1].probs
            assert np.abs(law.probs - want).max() < 1e-12, (name, t, form)


def _moore_target_marginal(problem, engine):
    """The solve with every target a Moore ball moore(A, r*(s-1)): from a
    point mass, the product of kernel rows on moore(A, r*(T-1)), then one
    step per t, renormalized by division as the solve is.  A step is a
    horizon-1 solve from the law when `engine`, which runs the same _Sweep
    and renormalizes in place, else the einsum oracle."""
    rule, kernel = problem.rule, local_kernel(problem.rule, problem.noise)
    symbols = problem.initial_symbols()
    dist = _initial_law(problem) if symbols is None or problem.horizon == 0 else None
    for s in range(problem.horizon, 0, -1):
        target = dependence_cone(problem.window, rule, s - 1)
        if dist is None:
            slots = _neighbour_slots(problem.cone(), rule, target)
            rows = kernel[symbols[slots] @ pattern_strides(len(rule.neighborhood), rule.alphabet.size)]
            dist = WindowDistribution.product_of_cells(target, rule.alphabet, rows)
        elif engine:
            dist = exact_window_marginal(ConeProblem(rule, problem.noise, target, 1, dist))[-1]
        else:
            dist = _einsum_sweep(dist, rule, target, kernel)
        if abs(float(dist.probs.sum()) - 1.0) > 1e-12:
            dist = WindowDistribution(dist.window, dist.alphabet, dist.probs / dist.probs.sum())
    return dist


@pytest.mark.parametrize("name", sorted(LIGHT_CONE_CASES))
def test_light_cone_law_matches_moore_target_oracle(name):
    rule, window, horizons = LIGHT_CONE_CASES[name]
    noise = _random_noise(rule.alphabet, 15)
    for t in horizons:
        for form, initial in _small_initials(rule, window, t, 20 + t).items():
            problem = ConeProblem(rule, noise, window, t, initial)
            got = exact_window_marginal(problem)[-1]
            want = _moore_target_marginal(problem, engine=False)
            assert got.window == want.window == window
            assert np.abs(got.probs - want.probs).max() < 1e-12, (name, t, form)


# From a law the sweeps run as the Moore-target ones do, so the laws are
# bit-identical.  From a point mass the first sweep takes the kernel rows in
# one at a time where the oracle multiplies out their product first, so the
# products are rounded in another order and the laws agree within 1e-12.


@pytest.mark.parametrize("name", sorted(FULL_MOORE_CASES))
def test_full_moore_laws_bit_identical_to_moore_target_sweeps(name):
    rule, window, horizons = FULL_MOORE_CASES[name]
    noise = _random_noise(rule.alphabet, 16)
    for t in horizons:
        for form, initial in _initials(rule, window, t, 30 + t).items():
            problem = ConeProblem(rule, noise, window, t, initial)
            got = exact_window_marginal(problem)[-1].probs
            want = _moore_target_marginal(problem, engine=True).probs
            if form == "law":
                assert np.array_equal(got, want), (name, t, form)
            else:
                assert np.abs(got - want).max() < 1e-12, (name, t, form)


def test_rule30_laws_bit_identical_to_moore_target_sweeps():
    cone = dependence_cone(hypercube(4), build_elementary(30), 4)
    law = WindowDistribution(cone, Z2, np.random.default_rng(31).dirichlet(np.ones(2 ** len(cone))))
    problem = ConeProblem(build_elementary(30), Q91, hypercube(4), 4, law)
    assert np.array_equal(exact_window_marginal(problem)[-1].probs, _moore_target_marginal(problem, engine=True).probs)
    for t in range(9):
        problem = ConeProblem(build_elementary(30), Q91, hypercube(4), t, np.zeros(4 + 2 * t, dtype=np.int64))
        got = exact_window_marginal(problem)[-1].probs
        assert np.abs(got - _moore_target_marginal(problem, engine=True).probs).max() < 1e-12, t


# point-mass cases of every neighbourhood shape, (rule, window, horizon)
POINT_MASS_CASES = {
    "binary-r1": (AGREEMENT_CASES["binary-r1"][0], hypercube(3), 4),
    "binary-r2": (AGREEMENT_CASES["binary-r2"][0], hypercube(2), 3),
    "z3-one-sided": (ONE_SIDED_Z3, hypercube(2), 6),
    "binary-sparse": LIGHT_CONE_CASES["binary-sparse"][:2] + (3,),
    "z2xz2-lift": (AGREEMENT_CASES["z2xz2-lift"][0], hypercube(2), 2),
    "2d-von-neumann": LIGHT_CONE_CASES["2d-von-neumann"][:2] + (2,),
    "2d-moore": (AGREEMENT_CASES["2d-moore"][0], hypercube(2, 2), 2),
}


@pytest.mark.parametrize("name", sorted(POINT_MASS_CASES))
def test_point_mass_plan_holds_less_than_the_law_on_the_first_light_cone(name):
    # the law after step 1 lies on A + (T-1)N' and is never built: the
    # first sweep takes the kernel rows in one source cell at a time
    rule, window, T = POINT_MASS_CASES[name]
    for t in range(1, T + 1):
        symbols = _small_initials(rule, window, t, 60)["symbols"]
        problem = ConeProblem(rule, _random_noise(rule.alphabet, 24), window, t, symbols)
        plan = problem._plan
        assert plan.cones[0] == _light_cones(window, rule, t - 1)[-1]
        assert plan.largest < rule.alphabet.size ** len(plan.cones[0]), (name, t)


@pytest.mark.parametrize("name", sorted({**LIGHT_CONE_CASES, **FULL_MOORE_CASES, **NO_ZERO_CASES}))
def test_point_mass_curve_matches_moore_target_oracle(name):
    # T = 1 has no sweep, at T = 2 the folded sweep ends on A, and a larger
    # T runs law sweeps after it; the Moore-target oracle multiplies the rows
    # out first, and each t is read from the oracle's solve at horizon t
    rule, window, horizons = {**LIGHT_CONE_CASES, **FULL_MOORE_CASES, **NO_ZERO_CASES}[name]
    noise = _random_noise(rule.alphabet, 25)
    for T in sorted({1, 2, max(horizons)}):
        problem = ConeProblem(rule, noise, window, T, _small_initials(rule, window, T, 70 + T)["symbols"])
        for t, law in enumerate(exact_window_marginal(problem)):
            want = _moore_target_marginal(_problem_at(problem, t), engine=False).probs
            assert np.abs(law.probs - want).max() < 1e-12, (name, T, t)


# (rule, window, horizon reached, bytes declared there): the next horizon is
# refused.  From a point mass the largest tensor is the first sweep's, below
# the law on A + (T-1)N'; the last term is the curve's T + 1 window laws.
# Rule 30's t = 12 would declare two buffers of 2^25 states, 1,920 bytes
# over MEMORY_CAP.
REACH = {
    "z3-one-sided-s2": (ONE_SIDED_Z3, hypercube(2), 15, 8 * (2 * 3 ** 15 + 2 * 3 ** 3 + 16 * 3 ** 2)),
    "2d-von-neumann-z3": (VON_NEUMANN_Z3, hypercube(1, 2), 3, 8 * (2 * 3 ** 9 + 2 * 3 ** 6 + 4 * 3)),
    "rule30-s4": (build_elementary(30), hypercube(4), 11, 8 * (2 * 2 ** 23 + 2 * 2 ** 4 + 12 * 2 ** 4)),
}


@pytest.mark.parametrize("name", sorted(REACH))
def test_reach_of_the_two_buffer_sweep(declared, name):
    # a ConeProblem checks its bytes when it is built; nothing is solved here
    rule, window, horizon, n_bytes = REACH[name]
    noise = _random_noise(rule.alphabet, 17)

    def problem(t):
        return ConeProblem(rule, noise, window, t, np.zeros(len(dependence_cone(window, rule, t)), dtype=np.int64))

    problem(horizon)
    assert declared[-1] == n_bytes <= MEMORY_CAP
    with pytest.raises(CapExceededError):
        problem(horizon + 1)


# refusals no other test reaches, (message pattern, call)
EXACT_REFUSALS = {
    "rule and noise alphabets differ": lambda: ConeProblem(
        R90, additive_noise(Z3, [0.5, 0.25, 0.25]), hypercube(1), 1, np.zeros(3, int)
    ),
    "window dimension does not match": lambda: ConeProblem(R90, Q91, hypercube(1, 2), 1, np.zeros(3, int)),
    "window must be non-empty": lambda: ConeProblem(R90, Q91, CellSet([], dim=1), 1, np.zeros(1, int)),
    "horizon must be non-negative": lambda: dependence_cone(hypercube(1), R90, -1),
    "initial law must live on moore": lambda: check_surjective_step_bound(
        R90, hypercube(2), WindowDistribution.uniform(moore(hypercube(2), 1), Z2)
    ),
}


@pytest.mark.parametrize("message", sorted(EXACT_REFUSALS))
def test_exact_refusals(message):
    with pytest.raises(ValueError, match=message):
        EXACT_REFUSALS[message]()


def test_renormalize_divides_a_drifting_law():
    # an initial law scaled by 1 + 5e-11 is admitted; its first sweep drifts
    # past 1e-12, so every later law is divided by its total
    rule, window, t = build_elementary(30), hypercube(2), 3
    cone = dependence_cone(window, rule, t)
    probs = np.random.default_rng(80).dirichlet(np.ones(2 ** len(cone)))
    scaled = exact_window_marginal(ConeProblem(rule, Q91, window, t, WindowDistribution(cone, Z2, probs * (1 + 5e-11))))
    exact = exact_window_marginal(ConeProblem(rule, Q91, window, t, WindowDistribution(cone, Z2, probs)))
    assert abs(scaled[0].probs.sum() - 1) > 1e-12
    for got, want in zip(scaled[1:], exact[1:]):
        assert abs(got.probs.sum() - 1) <= 1e-15
        assert np.abs(got.probs - want.probs).max() < 1e-12
