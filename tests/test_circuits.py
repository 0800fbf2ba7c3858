import math

import numpy as np
import pytest

from rcalab import circuits
from rcalab.circuits import (
    ControlledAdd,
    PermutationGate,
    ReversibleNetwork,
    Swap,
    Toffoli,
    Translate,
    alternating_cnot_network,
    apply_layer,
    chain_mixing_time,
    check_finite_bound,
    evolve_chain_exact,
    network_from_json,
    network_to_json,
    worst_case_curve,
    worst_case_distance,
)
from rcalab.entropy import WindowDistribution, entropy
from rcalab.lattice import Alphabet, hypercube
from rcalab.noise import additive_noise

Z2 = Alphabet((2,))
Z3 = Alphabet((3,))
Q91 = additive_noise(Z2, [0.9, 0.1])


def single_site_identity():
    return ReversibleNetwork(1, Z2, ((Translate(0, 0),),), "cycle")


def test_cnot_gate_semantics():
    net = ReversibleNetwork(2, Z2, ((ControlledAdd(0, 1),),), "cycle")
    perm = net.layer_permutation(0)
    # patterns encoded first site most significant: 10 -> 11, 11 -> 10
    assert perm[0b10] == 0b11
    assert perm[0b11] == 0b10
    assert perm[0b00] == 0b00 and perm[0b01] == 0b01


def test_gate_zoo_bijective():
    gates = [
        (Translate(0, 1), Z2, 3),
        (Swap(0, 2), Z2, 3),
        (Toffoli(0, 1, 2), Z2, 3),
        (PermutationGate((0, 1), (2, 0, 3, 1)), Z2, 3),
        (Translate(1, 2), Z3, 2),
        (ControlledAdd(0, 1), Z3, 2),
        (Toffoli(0, 1, 2), Z3, 3),
    ]
    for gate, alphabet, n in gates:
        net = ReversibleNetwork(n, alphabet, ((gate,),), "cycle")
        perm = net.layer_permutation(0)
        assert sorted(perm.tolist()) == list(range(alphabet.size ** n))


def test_toffoli_semantics():
    net = ReversibleNetwork(3, Z2, ((Toffoli(0, 1, 2),),), "cycle")
    perm = net.layer_permutation(0)
    assert perm[0b110] == 0b111
    assert perm[0b111] == 0b110
    assert perm[0b100] == 0b100


def test_permutation_gate_validation():
    with pytest.raises(ValueError):
        PermutationGate((0,), (0, 0))


def test_disjoint_sites_enforced():
    with pytest.raises(ValueError):
        ReversibleNetwork(2, Z2, ((ControlledAdd(0, 1), Translate(1, 1)),), "cycle")


def test_layer_preserves_entropy():
    rng = np.random.default_rng(0)
    net = alternating_cnot_network(4)
    state = WindowDistribution(hypercube(4), Z2, rng.dirichlet(np.ones(16)))
    for li in (0, 1):
        out = apply_layer(state, net, li)
        assert entropy(out) == pytest.approx(entropy(state), abs=1e-12)


def test_identity_layer_noop():
    state = WindowDistribution.point_mass(hypercube(1), Z2, 1)
    out = apply_layer(state, single_site_identity(), 0)
    assert np.array_equal(out.probs, state.probs)


def test_single_site_closed_form():
    net = single_site_identity()
    for t in (0, 1, 3, 7):
        out = evolve_chain_exact(WindowDistribution.point_mass(hypercube(1), Z2, 0), net, Q91, t)
        p1 = (1 - 0.8 ** t) / 2
        assert out.probs == pytest.approx([1 - p1, p1], abs=1e-14)


def test_uniform_is_stationary():
    net = alternating_cnot_network(4)
    state = WindowDistribution.uniform(hypercube(4), Z2)
    out = evolve_chain_exact(state, net, Q91, 5)
    assert np.abs(out.probs - 1 / 16).max() < 1e-14


def test_entropy_recursion_along_chain():
    # H(X^t) >= kappa |A| h_max + (1-kappa) H(X^{t-1}) at every step
    net = alternating_cnot_network(4)
    state = WindowDistribution.point_mass(hypercube(4), Z2, 5)
    h_prev = entropy(state)
    for t in range(1, 12):
        state = evolve_chain_exact(state, net, Q91, 1, start=t - 1)
        h = entropy(state)
        assert h >= 0.2 * 4 * math.log(2) + 0.8 * h_prev - 1e-12
        h_prev = h


def test_chain_law_must_live_on_the_network_sites():
    net = alternating_cnot_network(4)
    wrong = [
        WindowDistribution.uniform(hypercube(3), Z2),
        WindowDistribution.uniform(hypercube(2, dim=2), Z2),
        WindowDistribution.uniform(hypercube(4, anchor=(1,)), Z2),
        WindowDistribution.uniform(hypercube(4), Alphabet((2, 2))),
    ]
    for dist in wrong:
        with pytest.raises(ValueError):
            apply_layer(dist, net, 0)
        with pytest.raises(ValueError):
            evolve_chain_exact(dist, net, Q91, 1)


def test_evolve_chain_start_picks_the_layers():
    # steps are numbered from start + 1, so two one-step calls equal one
    # two-step call only when the second starts at 1
    layers = ((Translate(0, 1),), (ControlledAdd(0, 1),))
    net = ReversibleNetwork(2, Z2, layers, "fixed")
    law = WindowDistribution.point_mass(hypercube(2), Z2, 0b00)
    both = evolve_chain_exact(law, net, Q91, 2)
    first = evolve_chain_exact(law, net, Q91, 1)
    assert np.array_equal(evolve_chain_exact(first, net, Q91, 1, start=1).probs, both.probs)
    assert not np.allclose(evolve_chain_exact(first, net, Q91, 1).probs, both.probs)
    with pytest.raises(ValueError):  # the fixed schedule has no third layer
        evolve_chain_exact(both, net, Q91, 1, start=2)


def test_worst_case_distance_t0():
    for n in (1, 2, 3):
        net = alternating_cnot_network(max(n, 2))
        val, mode = worst_case_distance(net, Q91, 0)
        k = 2 ** max(n, 2)
        assert val == pytest.approx(1 - 1 / k)
        assert mode == "exact"


def test_single_site_distance_closed_form():
    net = single_site_identity()
    d_curve, xi_curve, mode = worst_case_curve(net, Q91, 10)
    for t in range(11):
        assert d_curve[t] == pytest.approx(0.8 ** t / 2, abs=1e-14)


def test_distance_non_increasing():
    net = alternating_cnot_network(6)
    d_curve, _, _ = worst_case_curve(net, Q91, 20)
    assert (np.diff(d_curve) <= 1e-12).all()


def test_chain_mixing_time_single_site():
    cm = chain_mixing_time(single_site_identity(), Q91, 0.1, horizon=20)
    assert cm.converged and cm.t_mix == 8
    cm0 = chain_mixing_time(single_site_identity(), Q91, 0.95, horizon=20)
    assert cm0.t_mix == 0
    # mixing time non-increasing in epsilon
    prev = None
    for eps in (0.02, 0.05, 0.1, 0.3):
        cm = chain_mixing_time(single_site_identity(), Q91, eps, horizon=40)
        if prev is not None:
            assert cm.t_mix <= prev
        prev = cm.t_mix


def test_check_finite_bound_example():
    net = alternating_cnot_network(4)
    rep = check_finite_bound(net, Q91, 10)
    assert rep.ok
    assert rep.rhs == pytest.approx(math.sqrt(math.log(2) / 2) * 2 * 0.8 ** 5, abs=1e-12)
    assert rep.params["xi_ok"]
    # t=0 vacuous for |A| >= 3
    rep0 = check_finite_bound(alternating_cnot_network(4), Q91, 0)
    assert rep0.rhs >= 1.0 and rep0.ok


def test_uniform_noise_mixes_in_one_step():
    uniform_noise = additive_noise(Z2, [0.5, 0.5])
    net = alternating_cnot_network(2)
    d_curve, _, _ = worst_case_curve(net, uniform_noise, 1)
    assert d_curve[1] == pytest.approx(0.0, abs=1e-14)


def test_commuting_gate_order():
    layer_ab = (ControlledAdd(0, 1), ControlledAdd(2, 3))
    layer_ba = (ControlledAdd(2, 3), ControlledAdd(0, 1))
    net1 = ReversibleNetwork(4, Z2, (layer_ab,), "cycle")
    net2 = ReversibleNetwork(4, Z2, (layer_ba,), "cycle")
    assert np.array_equal(net1.layer_permutation(0), net2.layer_permutation(0))


def test_schedules():
    layers = ((Translate(0, 1),), (ControlledAdd(0, 1),))
    fixed = ReversibleNetwork(2, Z2, layers, "fixed")
    assert fixed.layer_index_at(1) == 0 and fixed.layer_index_at(2) == 1
    with pytest.raises(ValueError):
        fixed.layer_index_at(3)
    cycle = ReversibleNetwork(2, Z2, layers, "cycle")
    assert [cycle.layer_index_at(t) for t in (1, 2, 3, 4)] == [0, 1, 0, 1]
    rand = ReversibleNetwork(2, Z2, layers, ("random", 99))
    seq1 = [rand.layer_index_at(t) for t in range(1, 30)]
    seq2 = [rand.layer_index_at(t) for t in range(1, 30)]
    assert seq1 == seq2
    assert set(seq1) == {0, 1}


def test_sampled_sup_mode_flag():
    net = alternating_cnot_network(8)
    val_exact, mode_exact = worst_case_distance(net, Q91, 3)
    val_sample, mode_sample = worst_case_distance(net, Q91, 3, exact_cap=4)
    assert mode_exact == "exact" and mode_sample == "sampled-lower-bound"
    assert val_sample <= val_exact + 1e-12


def test_network_json_roundtrip():
    net = ReversibleNetwork(
        3,
        Z2,
        (
            (Translate(0, 1), Swap(1, 2)),
            (Toffoli(0, 1, 2),),
            (PermutationGate((0, 1), (1, 0, 2, 3)),),
        ),
        ("random", 5),
    )
    doc = network_to_json(net)
    back = network_from_json(doc)
    assert network_to_json(back) == doc
    for li in range(3):
        assert np.array_equal(net.layer_permutation(li), back.layer_permutation(li))


def test_worst_case_curve_chunks_by_state_cap(monkeypatch):
    net = ReversibleNetwork(
        6,
        Z2,
        (
            tuple(ControlledAdd(i, i + 1) for i in (0, 2, 4)),
            (Toffoli(0, 1, 2), Toffoli(3, 4, 5)),
            (ControlledAdd(1, 2), ControlledAdd(3, 4), ControlledAdd(5, 0)),
        ),
    )
    whole = worst_case_curve(net, Q91, 7)
    batches = []
    convolve = circuits.convolve_sites

    def spy(probs, channel, n_sites):
        batches.append(probs.shape[0])
        return convolve(probs, channel, n_sites)

    monkeypatch.setattr(circuits, "convolve_sites", spy)
    monkeypatch.setattr(circuits, "STATE_CAP", 10 * 64)
    chunked = worst_case_curve(net, Q91, 7)
    assert max(batches) == 10 and sum(batches) == 7 * 64
    assert chunked[2] == whole[2] == "exact"
    for a, b in zip(chunked[:2], whole[:2]):
        assert np.abs(a - b).max() < 1e-12
