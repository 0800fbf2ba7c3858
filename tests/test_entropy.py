import math

import numpy as np
import pytest

from oracles import kl_divergence
from rcalab.entropy import (
    CapExceededError,
    WindowDistribution,
    deficiency,
    entropy,
    entropy_rows,
    entropy_vec,
    estimate_entropy,
    pinsker_bound,
    tv_to_uniform,
    tv_vec,
)
from rcalab.lattice import Alphabet, CellSet, hypercube

Z2 = Alphabet((2,))
CELL = CellSet([0])


def dist(probs, window=CELL, alphabet=Z2):
    return WindowDistribution(window, alphabet, probs)


def test_entropy_examples():
    assert entropy(dist([0.9, 0.1])) == pytest.approx(0.3250829733914482, abs=1e-15)
    assert entropy(dist([1.0, 0.0])) == 0.0
    w = hypercube(3)
    uniform = WindowDistribution.uniform(w, Z2)
    assert entropy(uniform) == pytest.approx(3 * math.log(2))


def test_deficiency_examples():
    assert deficiency(dist([0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)
    assert deficiency(dist([0.82, 0.18])) == pytest.approx(0.2217536937498511, abs=1e-12)
    w = hypercube(2)
    point = WindowDistribution.point_mass(w, Z2, 3)
    assert deficiency(point) == pytest.approx(2 * math.log(2))


def test_tv_examples():
    p, q = [0.9, 0.1], [0.5, 0.5]
    assert tv_vec(p, p) == 0.0
    assert tv_vec(p, q) == pytest.approx(0.4)
    assert tv_vec([1, 0], [0, 1]) == 1.0
    # a scalar second argument is the uniform law, as tv_to_uniform uses it
    assert tv_vec(p, 0.5) == tv_to_uniform(dist(p)) == pytest.approx(0.4)


def test_tv_metric_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = (rng.dirichlet([1, 1]) for _ in range(3))
        assert tv_vec(a, b) == pytest.approx(tv_vec(b, a))
        assert tv_vec(a, c) <= tv_vec(a, b) + tv_vec(b, c) + 1e-12


def test_pinsker_examples():
    assert pinsker_bound(dist([0.9, 0.1])) == pytest.approx(0.4289896310917649, abs=1e-12)
    assert pinsker_bound(dist([0.9, 0.1])) >= tv_to_uniform(dist([0.9, 0.1]))
    assert pinsker_bound(dist([0.5, 0.5])) == 0.0
    point = dist([1.0, 0.0])
    assert pinsker_bound(point) == pytest.approx(math.sqrt(math.log(2) / 2), abs=1e-12)
    assert tv_to_uniform(point) == pytest.approx(0.5)


def test_pinsker_property_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        k = int(rng.integers(2, 17))
        p = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
        xi = math.log(k) - entropy_vec(p)
        tv = 0.5 * np.abs(p - 1.0 / k).sum()
        assert tv <= math.sqrt(xi / 2) + 1e-12


def test_deficiency_is_kl_to_uniform():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = dist(rng.dirichlet([0.7, 0.7]))
        u = np.full(2, 0.5)
        assert deficiency(p) == pytest.approx(kl_divergence(p.probs, u), abs=1e-10)


def test_entropy_concavity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        lam = rng.uniform()
        mixed = entropy_vec(lam * p + (1 - lam) * q)
        assert mixed >= lam * entropy_vec(p) + (1 - lam) * entropy_vec(q) - 1e-12


def test_product_chain_rule():
    rng = np.random.default_rng(4)
    w = hypercube(3)
    laws = [rng.dirichlet([1, 1]) for _ in range(3)]
    joint = WindowDistribution.product_of_cells(w, Z2, laws)
    assert entropy(joint) == pytest.approx(sum(entropy_vec(p) for p in laws), abs=1e-12)


def test_marginal_consistency():
    rng = np.random.default_rng(5)
    w = hypercube(3)
    p = WindowDistribution(w, Z2, rng.dirichlet(np.ones(8)))
    sub = CellSet([0, 2])
    marg = p.marginal(sub)
    # brute-force marginal as the oracle
    expect = np.zeros(4)
    for code in range(8):
        bits = [(code >> 2) & 1, (code >> 1) & 1, code & 1]
        expect[(bits[0] << 1) | bits[2]] += p.probs[code]
    assert np.allclose(marg.probs, expect)


def test_state_cap():
    with pytest.raises(CapExceededError):
        WindowDistribution.uniform(hypercube(30), Z2)


def test_validation():
    with pytest.raises(ValueError):
        dist([0.6, 0.6])
    with pytest.raises(ValueError):
        dist([1.2, -0.2])


def test_estimate_entropy_examples():
    counts = np.bincount(np.zeros(100, dtype=int))
    assert estimate_entropy(counts, "plugin") == 0.0
    assert estimate_entropy(counts, "miller-madow") == 0.0


def test_estimate_entropy_consistency():
    rng = np.random.default_rng(6)
    n = 1_000_000
    samples = (rng.random(n) < 0.1).astype(int)
    h_true = 0.3250829733914482
    est = estimate_entropy(np.bincount(samples), "plugin")
    # bootstrap-free 3-sigma envelope via the delta method on H-hat
    p_hat = samples.mean()
    var = (math.log(p_hat / (1 - p_hat))) ** 2 * p_hat * (1 - p_hat) / n
    assert abs(est - h_true) < 3 * math.sqrt(var) + 1e-4


def test_plugin_negative_bias():
    # plug-in underestimates on average over many resamples
    rng = np.random.default_rng(7)
    truth = np.array([0.45, 0.3, 0.15, 0.1])
    h_true = entropy_vec(truth)
    ests = []
    for _ in range(1000):
        s = rng.choice(4, size=40, p=truth)
        ests.append(estimate_entropy(np.bincount(s, minlength=4), "plugin"))
    assert np.mean(ests) < h_true
    # Miller-Madow moves the estimate up by (K-1)/(2N)
    s = rng.choice(4, size=40, p=truth)
    k_hat = len(np.unique(s))
    counts = np.bincount(s, minlength=4)
    assert estimate_entropy(counts, "miller-madow") == pytest.approx(
        estimate_entropy(counts, "plugin") + (k_hat - 1) / 80.0
    )


def _masked_entropy(p):
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def test_counts_estimator_matches_samples_path():
    # the samples path it replaced: the empirical law of the observed codes
    rng = np.random.default_rng(8)
    for size in (1, 7, 200, 5000):
        samples = rng.integers(0, 16, size) ** 2 % 13  # some codes never drawn
        _, seen = np.unique(samples, return_counts=True)
        plugin = _masked_entropy(seen / size)
        counts = np.bincount(samples, minlength=16)
        assert estimate_entropy(counts, "plugin") == pytest.approx(plugin, abs=1e-14)
        assert estimate_entropy(counts, "miller-madow") == pytest.approx(
            plugin + (seen.size - 1) / (2.0 * size), abs=1e-14
        )
        assert type(estimate_entropy(counts, "miller-madow")) is float


def test_estimate_entropy_refuses_bad_counts():
    for counts in ([], [0, 0], [3, -1, 2]):
        with pytest.raises(ValueError):
            estimate_entropy(counts)
    with pytest.raises(ValueError, match="unknown estimator"):
        estimate_entropy([1, 2], "millermadow")


def test_entropy_rows_matches_entropy_vec():
    rng = np.random.default_rng(4)
    mat = rng.dirichlet(np.ones(16), size=6)
    mat[0] = np.eye(16)[3]
    mat[1, :8] = 0.0
    mat[1] /= mat[1].sum()
    got = entropy_rows(mat.T)
    assert got.shape == (6,)
    for row, h in zip(mat, got):
        assert h == pytest.approx(entropy_vec(row), abs=1e-14)
    assert got[0] == 0.0 and not np.signbit(got[0])
    assert entropy_rows(mat.T[:, None]).shape == (1, 6)


def test_entropy_rows_is_log_n_minus_kl_to_uniform():
    # KL keeps its own masked path, so it is an independent oracle
    rng = np.random.default_rng(9)
    mat = rng.dirichlet(np.full(32, 0.3), size=5)
    mat[2, ::3] = 0.0
    mat[2] /= mat[2].sum()
    uniform = np.full(32, 1 / 32)
    want = [math.log(32) - kl_divergence(row, uniform) for row in mat]
    assert entropy_rows(mat.T) == pytest.approx(want, abs=1e-14)
    for row, h in zip(mat, want):
        assert entropy_rows(row) == pytest.approx(h, abs=1e-14)


def test_admitted_negative_entry_is_stored_as_zero():
    probs = np.array([0.5, 0.0, -1e-12, 0.5 + 1e-12])
    law = WindowDistribution(hypercube(2), Z2, probs)
    assert law.probs.min() == 0.0 and probs[2] == -1e-12
    # the entropy the masked form gave such a law
    assert entropy(law) == pytest.approx(_masked_entropy(probs), abs=1e-14)
    clean = np.array([0.25, 0.0, 0.25, 0.5])
    assert WindowDistribution(hypercube(2), Z2, clean).probs is clean
