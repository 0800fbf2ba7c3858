import hashlib
import tracemalloc

import numpy as np
import pytest

from rcalab import montecarlo
from rcalab.entropy import CapExceededError, tv_to_uniform
from rcalab.exact import ConeProblem, exact_window_marginal
from rcalab.lattice import Alphabet, CellSet, hypercube
from rcalab.montecarlo import (
    SimulationPlan,
    adversarial_family,
    empirical_marginal,
    estimate_mixing_time,
    marginalize_counts,
    mixing_scan,
    sample_trajectory,
    window_pattern_counts,
)
from rcalab.noise import additive_noise, permutation_noise
from rcalab.rules import LocalRule, build_elementary, build_linear, lift_second_order

Z2 = Alphabet((2,))
Q91 = additive_noise(Z2, [0.9, 0.1])
IDENT = build_linear(Z2, {0: 1})
R90 = build_elementary(90)


def ident_plan(**kw):
    args = dict(
        rule=IDENT, noise=Q91, sides=(4,), generator="all-zeros",
        horizon=10, replicates=4000, seed=7, window=CellSet([0]),
    )
    args.update(kw)
    return SimulationPlan(**args)


def test_zero_horizon_trajectory():
    plan = ident_plan(horizon=0)
    traj = sample_trajectory(plan, 0)
    assert len(traj) == 1
    assert not traj[0].data.any()


def test_trajectory_determinism():
    plan = ident_plan()
    a = sample_trajectory(plan, 1234)
    b = sample_trajectory(plan, 1234)
    assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))
    c = sample_trajectory(plan, 1235)
    assert any(not np.array_equal(x.data, y.data) for x, y in zip(a, c))


def test_trajectory_matches_batch_row():
    # the single-replicate API reproduces the batched counts
    plan = ident_plan(replicates=2500, horizon=4)
    counts = window_pattern_counts(plan)
    recount = np.zeros_like(counts)
    for rep in range(plan.replicates):
        traj = sample_trajectory(plan, rep)
        for t, cfg in enumerate(traj):
            recount[t, cfg.get(0)] += 1
    assert np.array_equal(counts, recount)


def test_threads_do_not_change_counts():
    plan = ident_plan(replicates=5000)
    assert np.array_equal(
        window_pattern_counts(plan, threads=1), window_pattern_counts(plan, threads=4)
    )


def test_identity_frequency_closed_form():
    # P(state 1 at t) = (1 - 0.8^t)/2 from all-zeros
    plan = ident_plan(replicates=100_000, horizon=8, seed=3)
    counts = window_pattern_counts(plan)
    for t in range(9):
        p = (1 - 0.8 ** t) / 2
        sigma = np.sqrt(p * (1 - p) / plan.replicates) if p > 0 else 0.0
        assert abs(counts[t, 1] / plan.replicates - p) <= 3 * sigma + 1e-12


def test_empirical_marginal_single_replicate():
    plan = ident_plan(replicates=1, horizon=2)
    dist, se = empirical_marginal(plan, 2)
    assert sorted(dist.probs) == [0.0, 1.0]
    assert dist.probs.sum() == 1.0


def test_empirical_marginal_matches_exact():
    plan = SimulationPlan(
        R90, Q91, (16,), "all-zeros", 2, 100_000, 11, hypercube(2)
    )
    dist, se = empirical_marginal(plan, 2)
    exact = exact_window_marginal(ConeProblem(R90, Q91, hypercube(2), 2, np.zeros(6, int)))
    z = np.abs(dist.probs - exact.probs) / np.sqrt(exact.probs * (1 - exact.probs) / plan.replicates)
    assert z.max() <= 3.0


def test_wrap_validation():
    with pytest.raises(ValueError):
        SimulationPlan(R90, Q91, (5,), "all-zeros", 10, 10, 0, hypercube(2))
    plan = SimulationPlan(
        R90, Q91, (5,), "all-zeros", 10, 10, 0, hypercube(2), allow_wrap=True
    )
    assert plan.wrap_contaminated


def test_generators():
    plan = ident_plan(generator="all-ones", horizon=0)
    assert sample_trajectory(plan, 0)[0].data.tolist() == [1, 1, 1, 1]
    plan = ident_plan(generator="checkerboard", horizon=0)
    assert sample_trajectory(plan, 0)[0].data.tolist() == [0, 1, 0, 1]
    plan = ident_plan(generator=np.array([1, 0, 1, 1]), horizon=0)
    assert sample_trajectory(plan, 3)[0].data.tolist() == [1, 0, 1, 1]
    with pytest.raises(ValueError):
        ident_plan(generator=np.array([1, 0, 2, 1]))
    # seeded-random differs between replicates, same per replicate
    plan = ident_plan(generator="seeded-random", horizon=0, replicates=2000)
    x = sample_trajectory(plan, 7)[0].data
    y = sample_trajectory(plan, 7)[0].data
    assert np.array_equal(x, y)


def test_mixing_time_identity_is_8():
    fam = adversarial_family(IDENT, Q91, CellSet([0]), horizon=14, replicates=100_000, seed=11)
    est = estimate_mixing_time(fam, [window_pattern_counts(p) for p in fam], 0.1)
    assert est.converged and est.t_mix == 8
    assert est.monotone_within_3sigma


def test_mixing_time_trivial_epsilon():
    fam = adversarial_family(IDENT, Q91, CellSet([0]), horizon=4, replicates=5000, seed=2)
    est = estimate_mixing_time(fam, [window_pattern_counts(p) for p in fam], 0.9)
    assert est.t_mix == 0


def test_mixing_horizon_exhausted():
    fam = adversarial_family(IDENT, Q91, CellSet([0]), horizon=2, replicates=5000, seed=2)
    est = estimate_mixing_time(fam, [window_pattern_counts(p) for p in fam], 0.01)
    assert not est.converged
    assert est.t_mix == 3  # lower bound horizon + 1


def test_mixing_matches_exact_rule90():
    # exact distance for a linear rule is initial-independent, so the exact
    # t_mix comes from the all-zeros cone evolution
    eps = 0.1
    exact_curve = []
    for t in range(8):
        marg = exact_window_marginal(
            ConeProblem(R90, Q91, hypercube(2), t, np.zeros(2 + 2 * t, int))
        )
        exact_curve.append(tv_to_uniform(marg))
    t_exact = next(t for t, d in enumerate(exact_curve) if d <= eps)
    fam = adversarial_family(R90, Q91, hypercube(2), horizon=10, replicates=50_000, seed=5)
    est = estimate_mixing_time(fam, [window_pattern_counts(p) for p in fam], eps)
    assert abs(est.t_mix - t_exact) <= 1


def test_marginalize_counts_roundtrip():
    plan = SimulationPlan(R90, Q91, (20,), "seeded-random", 2, 3000, 17, hypercube(3))
    counts = window_pattern_counts(plan)
    sub = hypercube(2)
    direct_plan = SimulationPlan(R90, Q91, (20,), "seeded-random", 2, 3000, 17, sub)
    direct = window_pattern_counts(direct_plan)
    derived = marginalize_counts(counts, hypercube(3), sub, 2)
    assert np.array_equal(direct, derived)


def test_product_alphabet_exact_vs_mc():
    # Z2 x Z2 alphabet exercises the mixed-radix group path end to end
    z22 = Alphabet((2, 2))
    noise = additive_noise(z22, [0.7, 0.1, 0.1, 0.1])
    rule = build_linear(z22, {-1: 1, 0: 1})
    exact = exact_window_marginal(ConeProblem(rule, noise, CellSet([0]), 2, np.zeros(5, int)))
    plan = SimulationPlan(rule, noise, (8,), "all-zeros", 2, 50_000, 3, CellSet([0]))
    phat = window_pattern_counts(plan)[2] / plan.replicates
    z = np.abs(phat - exact.probs) / np.sqrt(exact.probs * (1 - exact.probs) / plan.replicates)
    assert z.max() <= 3.0


def test_permutation_noise_plan():
    # flip-with-prob-0.1 permutation noise has the same two-state chain law
    from rcalab.noise import permutation_noise

    pn = permutation_noise(Z2, [[0, 1], [1, 0]], [0.9, 0.1])
    ident_r1 = build_elementary(204)
    plan = SimulationPlan(ident_r1, pn, (9,), "all-zeros", 3, 30_000, 5, CellSet([0]))
    counts = window_pattern_counts(plan)
    p1 = counts[3, 1] / plan.replicates
    expect = (1 - 0.8 ** 3) / 2
    assert abs(p1 - expect) <= 3 * np.sqrt(expect * (1 - expect) / plan.replicates)


def test_mixing_scan_nested_windows():
    out = mixing_scan(R90, Q91, [1, 2], epsilon=0.1, horizon=8, replicates=20_000, seed=23)
    assert set(out) == {1, 2}
    assert out[1].converged and out[2].converged
    assert out[1].t_mix <= out[2].t_mix  # smaller window mixes no later


# SHA-256 of the little-endian int64 window counts, recorded before the
# block-step was rewritten for speed: the Philox address contract promises
# these exact integers for every version of the engine.
Z3 = Alphabet((3,))
VON_NEUMANN_Z3 = {(0, 0): 1, (-1, 0): 1, (1, 0): 2, (0, -1): 1, (0, 1): 1}
PINNED_DIGESTS = {
    "z2-r90-zeros": "cc9eb2d4352f2fe91ff050bfaf4b3f95d70ed5b5550d1e2abef67cd0cb5e5208",
    "z2-r90-pattern": "c02b1e7435e1ead6fb7dbffc26e4a3c9a4dc5be330bc4a022d685cfc4d285f9b",
    "z3-linear-checker": "fd57791e14dd9dc1f4fe2efe1c65a9eae5d30913088f9d8eb06bb35035f7c829",
    "z3-perm-2d-vn": "6fd6e0ee942fefab275dced496b46fd17b51f5af3c5029b4000dbf5da55be7f0",
    "z2xz2-lift-random": "90a1e53c293bd8d43192b5f86782aac208c349df0a692b2c30cc06fd3fdba583",
    "z2-r90-ones-threads3": "f6e23224de51576c89c215c22202ca5b6f99856802987d27afc41b0a2b7a992e",
}
# Recorded before the fused rule-and-noise lookup: a 1024-entry fused table
# (uint16 codes), a wrap-contaminated torus and a 262144-code Moore rule
# (uint32 codes).
PINNED_DIGESTS.update({
    "z2-radius4-random": "de9338bc0a6095cf427885398f6890e9d27e3393f799deb653bb055e0193d8f0",
    "z2-r90-wrap-random": "39704842679c9f33260a732decc2ded8146db7375ee4a5cb7df3a5d9ec8d3c1d",
    "z2xz2-moore-2d": "d76c1c32d57b93def2c28f95b7a9267ad8da0d12b24f40b90626d1c9782f7e4e",
})


def pinned_plans():
    """name -> (plan, threads); replicate counts other than 1024 end in a
    partial block."""
    pattern = np.zeros(15, dtype=np.int64)
    pattern[[2, 3, 7, 11]] = 1
    lift = lift_second_order(R90)
    radius4 = LocalRule(
        Z2, [(o,) for o in range(-4, 5)], np.random.default_rng(21).integers(0, 2, size=512)
    )
    z22 = Alphabet((2, 2))
    moore = LocalRule(
        z22, [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)],
        np.random.default_rng(22).integers(0, 4, size=4 ** 9),
    )
    perm3 = permutation_noise(
        Z3, [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 0, 2]], [0.7, 0.1, 0.1, 0.1]
    )
    return {
        "z2-r90-zeros": (SimulationPlan(
            R90, Q91, (15,), "all-zeros", 5, 2500, 11, hypercube(4)), 1),
        "z2-r90-pattern": (SimulationPlan(
            R90, additive_noise(Z2, [0.8, 0.2]), (15,), pattern, 5, 1024, 12,
            hypercube(3), stream=4), 1),
        "z3-linear-checker": (SimulationPlan(
            build_linear(Z3, {-1: 1, 0: 2, 1: 1}), additive_noise(Z3, [0.85, 0.1, 0.05]),
            (12,), "checkerboard", 4, 1500, 13, hypercube(3)), 1),
        "z3-perm-2d-vn": (SimulationPlan(
            build_linear(Z3, VON_NEUMANN_Z3), perm3, (9, 9), "seeded-random", 3, 1100,
            14, hypercube(2, 2)), 1),
        "z2xz2-lift-random": (SimulationPlan(
            lift, additive_noise(lift.alphabet, [0.7, 0.1, 0.1, 0.1]), (11,),
            "seeded-random", 4, 2100, 15, hypercube(2), stream=2), 1),
        "z2-r90-ones-threads3": (SimulationPlan(
            R90, Q91, (15,), "all-ones", 5, 4000, 16, hypercube(4)), 3),
        "z2-radius4-random": (SimulationPlan(
            radius4, additive_noise(Z2, [0.85, 0.15]), (28,), "checkerboard", 3, 1300, 17,
            hypercube(3)), 1),
        "z2-r90-wrap-random": (SimulationPlan(
            R90, Q91, (7,), "seeded-random", 6, 2200, 18, hypercube(4), stream=5,
            allow_wrap=True), 2),
        "z2xz2-moore-2d": (SimulationPlan(
            moore, additive_noise(z22, [0.7, 0.1, 0.15, 0.05]), (7, 7), "all-ones", 2, 1100,
            19, hypercube(2, 2)), 1),
    }


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_counts_match_pinned_digest(name):
    plan, threads = pinned_plans()[name]
    counts = window_pattern_counts(plan, threads=threads)
    assert counts.dtype == np.int64
    assert counts.sum(axis=1).tolist() == [plan.replicates] * (plan.horizon + 1)
    digest = hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()
    assert digest == PINNED_DIGESTS[name]


def test_trajectory_symbols_are_int64():
    plan, _ = pinned_plans()["z3-perm-2d-vn"]
    traj = sample_trajectory(plan, 1099)
    assert all(cfg.data.dtype == np.int64 and cfg.data.shape == (9, 9) for cfg in traj)


def _peak_bytes(plan, threads):
    tracemalloc.start()
    try:
        window_pattern_counts(plan, threads=threads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads", [1, 2])
def test_count_reduction_streams(threads):
    # a 2^10-pattern window over 31 steps: one block's counts are 254 KiB,
    # so holding every block would put 16 blocks at over 4 MiB
    def plan(blocks):
        return SimulationPlan(
            IDENT, Q91, (11,), "all-zeros", 30, blocks * 1024, 3, hypercube(10)
        )

    few, many = _peak_bytes(plan(2), threads), _peak_bytes(plan(16), threads)
    assert many <= few + 256 * 1024


@pytest.mark.parametrize("threads", [1, 2])
def test_one_philox_per_worker(monkeypatch, threads):
    # three blocks of seeded-random starts over four steps: every initial
    # draw and block-step moves the worker's one generator
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    plan = SimulationPlan(R90, Q91, (15,), "seeded-random", 4, 3000, 9, hypercube(3))
    window_pattern_counts(plan, threads=threads)
    assert len(built) == threads


def test_trajectories_match_batch_rows_seeded_wrapped_threaded():
    # seeded-random starts, a wrapped torus, two workers and a partial block
    plan = SimulationPlan(
        R90, Q91, (7,), "seeded-random", 3, 1100, 18, hypercube(4), stream=5, allow_wrap=True
    )
    counts = window_pattern_counts(plan, threads=2)
    recount = np.zeros_like(counts)
    for rep in range(plan.replicates):
        for t, cfg in enumerate(sample_trajectory(plan, rep)):
            recount[t, int(cfg.data[:4] @ [8, 4, 2, 1])] += 1
    assert np.array_equal(counts, recount)


def _refuse_to_count(*args):
    raise AssertionError("blocks were counted past the accumulator byte cap")


def test_count_accumulators_capped_in_bytes(monkeypatch):
    # 24 binary cells pass the 2^24 pattern cap, but one worker's 9 x 2^24
    # int64 accumulator would be 1.2 GB
    monkeypatch.setattr(montecarlo, "_block_counts", _refuse_to_count)
    plan = SimulationPlan(R90, Q91, (41,), "all-zeros", 8, 10, 1, hypercube(24))
    with pytest.raises(CapExceededError, match="bytes"):
        window_pattern_counts(plan)


def test_count_cap_counts_every_worker(monkeypatch):
    # two workers' 4 x 4 int64 accumulators are 256 bytes
    plan = SimulationPlan(R90, Q91, (9,), "all-zeros", 3, 2048, 1, hypercube(2))
    monkeypatch.setattr(montecarlo, "STATE_CAP", 32)
    assert window_pattern_counts(plan, threads=2).sum() == 4 * 2048
    monkeypatch.setattr(montecarlo, "STATE_CAP", 31)
    with pytest.raises(CapExceededError):
        window_pattern_counts(plan, threads=2)
    monkeypatch.setattr(montecarlo, "STATE_CAP", 16)
    assert window_pattern_counts(plan, threads=1).sum() == 4 * 2048
