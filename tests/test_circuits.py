import math

import numpy as np
import pytest

from oracles import chain_laws, kl_divergence
from rcalab import circuits
from rcalab.circuits import (
    ControlledAdd,
    PermutationGate,
    ReversibleNetwork,
    Swap,
    Toffoli,
    Translate,
    alternating_cnot_network,
    check_finite_bound,
    evolve_chain_exact,
    network_from_json,
    worst_case_curve,
)
from rcalab.entropy import (
    CapExceededError,
    WindowDistribution,
    entropy,
    entropy_vec,
    mixing_time,
    tv_vec,
)
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
    # a one-entry table on one binary site would make the layer map of two
    # sites [0, 1, 0, 1], which is not a bijection
    with pytest.raises(ValueError, match="table of 2 \\*\\* 1 entries"):
        ReversibleNetwork(2, Z2, ((PermutationGate((0,), (0,)),),))


def test_toffoli_needs_one_cyclic_factor():
    # x + y z is not defined on a product of cyclic factors
    with pytest.raises(ValueError, match="single cyclic factor"):
        ReversibleNetwork(3, Alphabet((2, 2)), ((Toffoli(0, 1, 2),),))


def test_disjoint_sites_enforced():
    with pytest.raises(ValueError):
        ReversibleNetwork(2, Z2, ((ControlledAdd(0, 1), Translate(1, 1)),), "cycle")


def test_layer_preserves_entropy():
    # a layer is a bijection of Sigma^A, so its pushforward only reorders
    # the probabilities
    rng = np.random.default_rng(0)
    net = alternating_cnot_network(4)
    probs = rng.dirichlet(np.ones(16))
    for li in (0, 1):
        perm = net.layer_permutation(li)
        assert sorted(perm.tolist()) == list(range(16))
        pushed = np.empty_like(probs)
        pushed[perm] = probs
        assert entropy_vec(pushed) == pytest.approx(entropy_vec(probs), abs=1e-12)


def test_identity_layer_noop():
    net = single_site_identity()
    assert net.layer_permutation(0).tolist() == [0, 1]
    # with the layer a no-op, one chain step from x is the channel's row x
    out = evolve_chain_exact(WindowDistribution.point_mass(hypercube(1), Z2, 1), net, Q91, 1)
    assert out.probs.tolist() == [0.1, 0.9]


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
    for n in (2, 3):
        d_curve, _, mode = worst_case_curve(alternating_cnot_network(n), Q91, 0)
        assert d_curve[0] == pytest.approx(1 - 1 / 2 ** n)
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
    # the rule circuit-mix applies to the worst-case curve
    d_curve = worst_case_curve(single_site_identity(), Q91, 20)[0]
    assert mixing_time(d_curve, 0.1) == (8, True)
    assert mixing_time(d_curve, 0.95) == (0, True)
    # mixing time non-increasing in epsilon
    d_curve = worst_case_curve(single_site_identity(), Q91, 40)[0]
    t_mixes = [mixing_time(d_curve, eps)[0] for eps in (0.02, 0.05, 0.1, 0.3)]
    assert t_mixes == sorted(t_mixes, reverse=True)


def test_check_finite_bound_example():
    net = alternating_cnot_network(4)
    curves = worst_case_curve(net, Q91, 10)
    reports = check_finite_bound(net, Q91, curves)
    assert [rep.params["t"] for rep in reports] == list(range(11))
    assert all(rep.ok and rep.params["xi_ok"] for rep in reports)
    rep = reports[10]
    assert rep.rhs == pytest.approx(math.sqrt(math.log(2) / 2) * 2 * 0.8 ** 5, abs=1e-12)
    assert rep.params["xi_bound"] == pytest.approx(0.8 ** 10 * 4 * math.log(2), abs=1e-12)
    assert (rep.lhs, rep.params["xi_max"], rep.params["mode"]) == (curves[0][10], curves[1][10], "exact")
    # t=0 vacuous for |A| >= 3
    assert reports[0].rhs >= 1.0 and reports[0].ok


def test_check_finite_bound_flags_each_side():
    net = alternating_cnot_network(2)
    d_curve, xi_curve, mode = worst_case_curve(net, Q91, 3)
    over = [r.rhs + 1e-6 for r in check_finite_bound(net, Q91, (d_curve, xi_curve, mode))]
    reports = check_finite_bound(net, Q91, (np.array(over), xi_curve, mode))
    assert not any(r.ok for r in reports) and all(r.params["xi_ok"] for r in reports)
    xi_over = np.array([r.params["xi_bound"] + 1e-6 for r in reports])
    reports = check_finite_bound(net, Q91, (d_curve, xi_over, mode))
    assert all(r.ok for r in reports) and not any(r.params["xi_ok"] for r in reports)


def test_negative_horizon_refused_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("the chain started")

    monkeypatch.setattr(circuits, "_noise_blocks", refuse)
    with pytest.raises(ValueError, match="non-negative"):
        worst_case_curve(alternating_cnot_network(3), Q91, -1)


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


def test_sampled_sup_mode_flag(monkeypatch):
    net = alternating_cnot_network(8)
    d_exact, _, mode_exact = worst_case_curve(net, Q91, 3)
    monkeypatch.setattr(circuits, "EXACT_STATES", 4)
    d_sample, _, mode_sample = worst_case_curve(net, Q91, 3)
    assert mode_exact == "exact" and mode_sample == "sampled-lower-bound"
    assert d_sample[3] <= d_exact[3] + 1e-12


@pytest.mark.parametrize("schedule", ["cycle", "fixed", ["random", 5]], ids=["cycle", "fixed", "random"])
def test_network_from_json(schedule):
    doc = {
        "sites": 3,
        "alphabet": [3],
        "layers": [
            [{"gate": "translate", "sites": [0], "params": {"amount": 2}}, {"gate": "swap", "sites": [1, 2]}],
            [{"gate": "cadd", "sites": [2, 0]}],
            [{"gate": "toffoli", "sites": [0, 1, 2]}],
            [{"gate": "permutation", "sites": [1, 0], "params": {"table": [3, 0, 1, 2, 4, 5, 6, 8, 7]}}],
        ],
        "schedule": schedule,
    }
    layers = (
        (Translate(0, 2), Swap(1, 2)),
        (ControlledAdd(2, 0),),
        (Toffoli(0, 1, 2),),
        (PermutationGate((1, 0), (3, 0, 1, 2, 4, 5, 6, 8, 7)),),
    )
    net = ReversibleNetwork(3, Z3, layers, tuple(schedule) if isinstance(schedule, list) else schedule)
    back = network_from_json(doc)
    assert (back.n_sites, back.alphabet.factors, back.schedule) == (3, (3,), net.schedule)
    assert [[type(g) for g in layer] for layer in back.layers] == [[type(g) for g in layer] for layer in layers]
    for li in range(len(layers)):
        assert np.array_equal(back.layer_permutation(li), net.layer_permutation(li)), li
    assert [back.layer_index_at(t) for t in range(1, 5)] == [net.layer_index_at(t) for t in range(1, 5)]


def test_network_from_json_defaults_to_cycle_and_refuses_unknown_gates():
    doc = {"sites": 2, "alphabet": [2], "layers": [[{"gate": "cadd", "sites": [0, 1]}]]}
    assert network_from_json(doc).schedule == "cycle"
    doc["layers"][0][0]["gate"] = "cnot"
    with pytest.raises(ValueError, match="unknown gate kind 'cnot'"):
        network_from_json(doc)


def test_worst_case_curve_chunks_by_state_cap(monkeypatch, memory_cap, declared):
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

    def spy(probs, channel, n_sites, out=None):
        batches.append(probs.shape[1])
        return convolve(probs, channel, n_sites, out=out)

    monkeypatch.setattr(circuits, "convolve_sites", spy)
    # the chain asks for room for one batch column, two float64 arrays of
    # the states; a budget with room for nine more runs ten at a time
    memory_cap(declared[0] + 9 * 2 * 8 * 64)
    chunked = worst_case_curve(net, Q91, 7)
    assert max(batches) == 10 and sum(batches) == 7 * 64
    memory_cap(declared[0] - 1)
    with pytest.raises(CapExceededError):
        worst_case_curve(net, Q91, 7)
    assert chunked[2] == whole[2] == "exact"
    for a, b in zip(chunked[:2], whole[:2]):
        assert np.abs(a - b).max() < 1e-12


def _toffoli_brick_network():
    return ReversibleNetwork(
        6,
        Z2,
        (
            tuple(ControlledAdd(i, i + 1) for i in (0, 2, 4)),
            (Toffoli(0, 1, 2), Toffoli(3, 4, 5)),
            (ControlledAdd(1, 2), ControlledAdd(3, 4), ControlledAdd(5, 0)),
        ),
    )


def _z3_permutation_network():
    return ReversibleNetwork(
        3,
        Z3,
        (
            (PermutationGate((0, 1), (3, 7, 0, 8, 1, 5, 2, 6, 4)), Translate(2, 1)),
            (ControlledAdd(2, 0), Translate(1, 2)),
            (Swap(0, 2),),
        ),
        ("random", 3),
    )


@pytest.mark.parametrize(
    "net, noise",
    [
        (_toffoli_brick_network(), Q91),
        (_z3_permutation_network(), additive_noise(Z3, [0.7, 0.2, 0.1])),
    ],
    ids=["z2-toffoli", "z3-permutation"],
)
def test_worst_case_curve_matches_per_initial_chains(net, noise):
    # oracle: every point-mass initial through the gates' own semantics on
    # digit tuples, Kronecker-power noise and dense matrix products; each
    # initial also evolved alone by evolve_chain_exact, one step at a time
    t_max = 7
    d_curve, xi_curve, mode = worst_case_curve(net, noise, t_max)
    assert mode == "exact"
    window = hypercube(net.n_sites)
    laws = [WindowDistribution.point_mass(window, net.alphabet, x) for x in range(net.n_states)]
    uniform = np.full(net.n_states, 1.0 / net.n_states)
    for t, want in enumerate(chain_laws(net, noise, t_max)):
        if t:
            laws = [evolve_chain_exact(law, net, noise, 1, start=t - 1) for law in laws]
        assert np.abs(np.stack([law.probs for law in laws]) - want).max() < 1e-12
        assert abs(d_curve[t] - max(tv_vec(row, uniform) for row in want)) < 1e-12
        # Xi = |A| h_max - H = log N - H, the KL divergence to uniform
        assert abs(xi_curve[t] - max(kl_divergence(row, uniform) for row in want)) < 1e-12


def test_sampled_curve_does_not_depend_on_batch_width(monkeypatch):
    net = _toffoli_brick_network()
    monkeypatch.setattr(circuits, "EXACT_STATES", 32)
    ref = worst_case_curve(net, Q91, 7)
    assert ref[2] == "sampled-lower-bound"
    for width in (1, 7, circuits.SAMPLED_INITIALS):
        monkeypatch.setattr(circuits, "CHAIN_BATCH", width)
        got = worst_case_curve(net, Q91, 7)
        assert got[2] == ref[2]
        for a, b in zip(got[:2], ref[:2]):
            assert np.abs(a - b).max() < 1e-12


def _count_layer_builds(monkeypatch):
    # patched on the class, as the benchmark tracer does
    build = ReversibleNetwork.layer_permutation
    calls = []

    def counted(self, layer_index):
        calls.append(layer_index)
        return build(self, layer_index)

    monkeypatch.setattr(ReversibleNetwork, "layer_permutation", counted)
    return calls


def test_evolve_chain_builds_each_layer_once(monkeypatch):
    net = alternating_cnot_network(6)
    law = WindowDistribution.point_mass(hypercube(6), Z2, 0)
    calls = _count_layer_builds(monkeypatch)
    evolve_chain_exact(law, net, Q91, 16)
    assert sorted(calls) == [0, 1]


def test_worst_case_curve_builds_each_layer_once_across_batches(monkeypatch):
    net = alternating_cnot_network(7)
    assert net.n_states > circuits.CHAIN_BATCH
    calls = _count_layer_builds(monkeypatch)
    worst_case_curve(net, Q91, 7)
    assert sorted(calls) == [0, 1]


CNOT = ControlledAdd(0, 1)
# refusals no other test reaches, (message pattern, call)
CIRCUIT_REFUSALS = {
    "at least one non-empty layer": lambda: ReversibleNetwork(2, Z2, ((CNOT,), ())),
    "unknown schedule": lambda: ReversibleNetwork(2, Z2, ((CNOT,),), "sometimes"),
    "indexed from t = 1": lambda: ReversibleNetwork(2, Z2, ((CNOT,),)).layer_index_at(0),
    "noise and network alphabets differ": lambda: evolve_chain_exact(
        WindowDistribution.point_mass(hypercube(2), Z2, 0), ReversibleNetwork(2, Z2, ((CNOT,),)),
        additive_noise(Z3, [0.5, 0.25, 0.25]), 1,
    ),
    "at least two sites": lambda: alternating_cnot_network(1),
}


@pytest.mark.parametrize("message", sorted(CIRCUIT_REFUSALS))
def test_circuit_refusals(message):
    with pytest.raises(ValueError, match=message):
        CIRCUIT_REFUSALS[message]()
