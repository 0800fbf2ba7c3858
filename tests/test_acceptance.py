"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  All expected values are closed-form, oracle-computed, or
property-based; Monte Carlo assertions run at pinned seeds (the engines are
fully deterministic given a seed)."""

import math
import time
from itertools import product

import numpy as np

from oracles import preimage_count_oracle
from rcalab.analysis import contiguous_table
from rcalab import analysis
from rcalab.bounds import (
    bootstrap_layout,
    check_block_superadditivity,
    noise_lemma_suite,
)
from rcalab.circuits import alternating_cnot_network, check_finite_bound, worst_case_curve
from rcalab.entropy import WindowDistribution, pinsker_bound, tv_to_uniform
from rcalab.exact import (
    ConeProblem,
    check_evolution_bound,
    dependence_cone,
    exact_window_marginal,
)
from rcalab.lattice import Alphabet, CellSet, diameter, hypercube
from rcalab.montecarlo import SimulationPlan, mixing_scan, window_pattern_counts
from rcalab.noise import additive_noise
from rcalab.rules import build_elementary, build_linear

Z2 = Alphabet((2,))
Z3 = Alphabet((3,))
Q91 = additive_noise(Z2, [0.9, 0.1])
IDENTITY = build_linear(Z2, {0: 1})
R90 = build_elementary(90)


def _report(num, elapsed, budget, detail=""):
    print(f"CRITERION {num}: PASS ({elapsed:.2f}s < {budget}s) {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_closed_form_decay():
    start = time.time()
    # exact engine: TV(X^t, uniform) = 0.8^t / 2 within 1e-12
    for t in range(21):
        marginal = exact_window_marginal(ConeProblem(IDENTITY, Q91, CellSet([0]), t, np.zeros(1, int)))[-1]
        assert abs(tv_to_uniform(marginal) - 0.8 ** t / 2) < 1e-12
    # Monte Carlo at R = 1e5 within 3 sigma (pinned seed)
    plan = SimulationPlan(IDENTITY, Q91, (4,), "all-zeros", 20, 100_000, 31, CellSet([0]))
    counts = window_pattern_counts(plan)
    for t in range(21):
        p = (1 - 0.8 ** t) / 2
        if p == 0.0:
            assert counts[t, 1] == 0
            continue
        sigma = math.sqrt(p * (1 - p) / plan.replicates)
        assert abs(counts[t, 1] / plan.replicates - p) <= 3 * sigma
    _report(1, time.time() - start, 1.0, "identity chain decay 0.8^t/2, exact + MC")


def test_criterion_2_noise_lemma_suite():
    start = time.time()
    # 500 instances per alphabet x 2 alphabets = 1000 per variant
    reports = noise_lemma_suite([[2], [3]], 500, seed=8)
    by_variant = {}
    for r in reports:
        by_variant.setdefault(r.claim, []).append(r)
    assert set(by_variant) == {
        "noise-lemma/scalar", "noise-lemma/joint", "noise-lemma/conditional"
    }
    for claim, rs in by_variant.items():
        assert len(rs) == 1000
        assert all(r.lhs - r.rhs >= -1e-9 for r in rs), claim
    _report(2, time.time() - start, 10.0, "3000 random lemma instances, slack >= -1e-9")


def _criterion_3_instances():
    rng = np.random.default_rng(0)
    for n in range(1, 5):
        window = hypercube(n)
        for t in range(6):
            cone = dependence_cone(window, R90, t)
            initials = [np.zeros(len(cone), int)]
            initials += [rng.integers(0, 2, size=len(cone)) for _ in range(20)]
            for init in initials:
                yield ConeProblem(R90, Q91, window, t, init)


def test_criterion_3_evolution_bound():
    start = time.time()
    checked = 0
    for problem in _criterion_3_instances():
        res = check_evolution_bound(problem, problem.horizon, exact_window_marginal(problem)[-1], surjective=True)
        assert res.ok, (problem.window, problem.horizon)
        checked += 1
    assert checked == 4 * 6 * 21
    _report(3, time.time() - start, 60.0, f"entropy floor held on {checked} wrap-free runs")


def test_criterion_4_pinsker_end_to_end():
    start = time.time()
    worst_gap = math.inf
    # every exact output of criterion 1
    for t in range(21):
        marginal = exact_window_marginal(ConeProblem(IDENTITY, Q91, CellSet([0]), t, np.zeros(1, int)))[-1]
        bound = pinsker_bound(marginal)
        assert tv_to_uniform(marginal) <= bound + 1e-12
        worst_gap = min(worst_gap, bound - tv_to_uniform(marginal))
    # every exact output of criterion 3
    for problem in _criterion_3_instances():
        marginal = exact_window_marginal(problem)[-1]
        bound = pinsker_bound(marginal)
        assert tv_to_uniform(marginal) <= bound + 1e-12
        worst_gap = min(worst_gap, bound - tv_to_uniform(marginal))
    _report(4, time.time() - start, 120.0, f"TV <= sqrt(Xi/2) everywhere (min gap {worst_gap:.2e})")


def test_criterion_5_rule_classification():
    start = time.time()
    surjective_codes = (90, 102, 150, 170, 204)
    injective_codes = (170, 204)
    non_surjective_codes = (0, 110, 128)
    for code in surjective_codes:
        rule = build_elementary(code)
        assert analysis.test_surjective(rule), code
        assert analysis.test_injective(rule) == (code in injective_codes), code
        # oracle cross-check: every word up to length 8 has |Sigma|^(m-1) preimages
        _, m, _ = contiguous_table(rule)
        expect = 2 ** (m - 1)
        for length in range(1, 9):
            for w in product((0, 1), repeat=length):
                assert preimage_count_oracle(rule, w) == expect, (code, w)
    for code in non_surjective_codes:
        rule = build_elementary(code)
        assert not analysis.test_surjective(rule), code
        assert not analysis.test_injective(rule), code
        # oracle cross-check: some word up to length 8 deviates from balance
        deviation = None
        for length in range(1, 9):
            for w in product((0, 1), repeat=length):
                if preimage_count_oracle(rule, w) != 4:
                    deviation = (length, w)
                    break
            if deviation:
                break
        assert deviation is not None, code
    _report(5, time.time() - start, 5.0, "classification + preimage oracle to length 8")


def test_criterion_6_bootstrap_geometry_and_superadditivity():
    start = time.time()
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        r = int(rng.integers(0, 3))
        t = int(rng.integers(0, 5))
        d = int(rng.integers(1, 3))
        layout = bootstrap_layout(n, k, r, t, d)
        assert layout.packed()  # disjoint + contained
        assert layout.m == k * (n + 2 * r * t)
    # exact superadditivity on feasible instances (state cap 2^20)
    feasible = [
        # (block side n, d, k, r, t, padding)
        (1, 1, 2, 1, 0, None),
        (1, 1, 2, 1, 2, None),
        (1, 1, 2, 1, 4, None),
        (2, 1, 2, 1, 4, None),  # m = 20, the cap boundary
        (1, 1, 3, 1, 2, None),
        (1, 1, 2, 2, 2, "random"),
        (2, 1, 2, 1, 2, "random"),
        (1, 2, 2, 1, 0, None),
        (2, 2, 2, 2, 0, None),
        (1, 2, 3, 1, 0, None),
    ]
    for n, d, k, r, t, pad_kind in feasible:
        window = hypercube(n, d)
        probs = rng.dirichlet(np.ones(2 ** len(window)))
        block = WindowDistribution(window, Z2, probs)
        padding = rng.dirichlet([2, 2]) if pad_kind == "random" else None
        rep = check_block_superadditivity(block, k, r=r, t=t, padding=padding)
        assert rep.ok, (n, d, k, r, t)
        # point-mass block: assembled deficiency >= k^d |block| h_max
        point = WindowDistribution.point_mass(window, Z2, 0)
        rep_pt = check_block_superadditivity(point, k, r=r, t=t)
        assert rep_pt.ok
        assert rep_pt.lhs >= k ** d * len(window) * math.log(2) - 1e-9
    _report(6, time.time() - start, 30.0, "1000 layouts + exact superadditivity")


def test_criterion_7_finite_reversible_computer():
    start = time.time()
    t_mix = {}
    for n_bits in (2, 4, 6, 8, 10):
        network = alternating_cnot_network(n_bits)
        curves = worst_case_curve(network, Q91, 40)
        d_curve, _, mode = curves
        assert mode == "exact"
        reports = check_finite_bound(network, Q91, curves)
        assert len(reports) == 41
        for rep in reports:
            assert rep.ok and rep.params["xi_ok"], (n_bits, rep.params["t"])
        hits = np.nonzero(d_curve <= 0.01)[0]
        assert hits.size, f"epsilon=0.01 not reached for |A|={n_bits}"
        t_mix[n_bits] = int(hits[0])
    # measured t_mix fits under a c1 log|A| + c2 envelope with c1 >= 0
    logs = np.log(sorted(t_mix))
    vals = np.array([t_mix[n] for n in sorted(t_mix)], dtype=float)
    slope, _ = np.polyfit(logs, vals, 1)
    c1 = max(0.0, float(slope))
    c2 = float((vals - c1 * logs).max())
    assert all(v <= c1 * le + c2 + 1e-9 for le, v in zip(logs, vals))
    # residual check: increments never exceed the log-law allowance by more
    # than one step (rules out super-logarithmic growth)
    for i in range(len(vals) - 1):
        allowed = c1 * (logs[i + 1] - logs[i]) + 1.0
        assert vals[i + 1] - vals[i] <= allowed + 1e-9
    _report(
        7, time.time() - start, 120.0,
        f"decay bound held to t=40; t_mix={t_mix}, envelope c1={c1:.2f}, c2={c2:.1f}",
    )


def test_criterion_8_logarithmic_mixing():
    start = time.time()
    estimates = mixing_scan(
        R90, Q91, [1, 2, 4, 8], epsilon=0.1, horizon=12, replicates=100_000, seed=29
    )
    t_mix = {n: est.t_mix for n, est in estimates.items()}
    assert all(est.converged for est in estimates.values()), t_mix
    values = [t_mix[n] for n in (1, 2, 4, 8)]
    # non-decreasing in n
    assert all(a <= b for a, b in zip(values, values[1:])), t_mix
    # increments across the three doublings agree within +-1 step
    increments = [b - a for a, b in zip(values, values[1:])]
    assert max(increments) - min(increments) <= 1, increments
    _report(8, time.time() - start, 300.0, f"t_mix(S_n, 0.1) = {t_mix} at R=1e5")


def _criterion_9_instances(rng):
    pool_1d = [
        (build_elementary(90), additive_noise(Z2, [0.9, 0.1])),
        (build_elementary(102), additive_noise(Z2, [0.8, 0.2])),
        (build_elementary(150), additive_noise(Z2, [0.9, 0.1])),
        (build_elementary(110), additive_noise(Z2, [0.85, 0.15])),
        (build_elementary(30), additive_noise(Z2, [0.9, 0.1])),
        (build_linear(Z3, {0: 1, 1: 1}), additive_noise(Z3, [0.5, 0.25, 0.25])),
        (build_linear(Z3, {-1: 2, 1: 1}), additive_noise(Z3, [0.6, 0.25, 0.15])),
    ]
    rule2d = build_linear(Z2, {(0, 1): 1, (1, 0): 1, (-1, 0): 1, (0, -1): 1})
    out = []
    for i in range(50):
        if i % 10 == 9:
            out.append((rule2d, additive_noise(Z2, [0.9, 0.1]), hypercube(1, 2), 1))
            continue
        rule, noise = pool_1d[rng.integers(len(pool_1d))]
        max_side = 4 if noise.alphabet.size == 2 else 3
        window = hypercube(int(rng.integers(1, max_side)))
        out.append((rule, noise, window, int(rng.integers(0, 4))))
    return out


def test_criterion_9_monte_carlo_vs_exact():
    start = time.time()
    replicates = 20_000
    rng = np.random.default_rng(77)
    worst_z = 0.0
    for idx, (rule, noise, window, t) in enumerate(_criterion_9_instances(rng)):
        cone = dependence_cone(window, rule, t)
        init = rng.integers(0, rule.alphabet.size, size=len(cone))
        exact = exact_window_marginal(ConeProblem(rule, noise, window, t, init))[-1]
        side = diameter(window) + 2 * rule.radius * t + 1
        sides = (max(side, 2 * rule.radius + 1),) * rule.dim
        torus = np.zeros(sides, dtype=np.int64)
        for cell, sym in zip(cone.cells, init):
            torus[tuple(c % s for c, s in zip(cell, sides))] = sym
        plan = SimulationPlan(rule, noise, sides, torus, t, replicates, 1000 + idx, window)
        phat = window_pattern_counts(plan)[t] / replicates
        sigma = np.sqrt(exact.probs * (1 - exact.probs) / replicates)
        sure = sigma == 0
        assert np.array_equal(phat[sure], exact.probs[sure])
        if sure.all():  # deterministic law (t = 0): exact equality suffices
            continue
        z = np.abs(phat[~sure] - exact.probs[~sure]) / sigma[~sure]
        assert z.max() <= 3.0, (idx, rule.neighborhood, t, z.max())
        worst_z = max(worst_z, float(z.max()))
    _report(9, time.time() - start, 120.0, f"50 instances, worst per-pattern z = {worst_z:.2f}")
