"""The one byte budget: every engine passes check_bytes, before it allocates,
the bytes it holds at its peak.  Each engine runs small under tracemalloc
here, and its peak must stay within the largest count it declared, and not
fall far below it."""

import threading
import tracemalloc

import numpy as np
import pytest

from oracles import preimage_count_oracle
from rcalab import circuits, montecarlo
from rcalab.analysis import analyze_rule
from rcalab.bounds import check_block_superadditivity
from rcalab.circuits import (
    ControlledAdd,
    PermutationGate,
    ReversibleNetwork,
    Swap,
    Toffoli,
    Translate,
    alternating_cnot_network,
    worst_case_curve,
)
from rcalab.entropy import MEMORY_CAP, CapExceededError, WindowDistribution
from rcalab.exact import ConeProblem, dependence_cone, exact_window_marginal, push_deterministic
from rcalab.lattice import Alphabet, CellSet, hypercube, moore
from rcalab.montecarlo import SimulationPlan, mixing_scan, window_pattern_counts
from rcalab.noise import additive_noise, noise_from_json
from rcalab.rules import LocalRule, build_elementary, build_linear, rule_from_json

Z2 = Alphabet((2,))
Q91 = additive_noise(Z2, [0.9, 0.1])
R30, R90 = build_elementary(30), build_elementary(90)
SPAN9 = [(o,) for o in range(-4, 5)]
MOORE = LocalRule(
    Z2,
    tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)),
    np.random.default_rng(1).integers(0, 2, 512),
)
VON_NEUMANN = LocalRule(
    Z2, ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)), np.random.default_rng(5).integers(0, 2, 32)
)

# check_bytes counts arrays; the interpreter's own objects (cell tuples,
# dicts, frames) are not counted
OBJECTS = 64 * 1024


def _from_zeros(rule, window, t):
    cone = dependence_cone(window, rule, t)
    return exact_window_marginal(ConeProblem(rule, Q91, window, t, np.zeros(len(cone), dtype=np.int64)))[-1]


def _from_law(rule, window, t):
    # the initial law is the caller's, made outside the measurement: the
    # solve declares only what it allocates
    cone = dependence_cone(window, rule, t)
    law = WindowDistribution(cone, Z2, np.random.default_rng(2).dirichlet(np.ones(2 ** len(cone))))
    return lambda: exact_window_marginal(ConeProblem(rule, Q91, window, t, law))[-1]


def _push(rule, source, target):
    law = WindowDistribution(source, Z2, np.random.default_rng(4).dirichlet(np.ones(2 ** len(source))))
    return lambda: push_deterministic(law, rule, target)


def _gate_zoo(n_sites):
    layer = (
        Toffoli(0, 1, 2),
        PermutationGate((5, 3), (2, 0, 3, 1)),
        ControlledAdd(6, 4),
        Swap(7, 8),
        Translate(9, 1),
    ) + tuple(ControlledAdd(i, i + 1) for i in range(10, n_sites - 1, 2))
    return ReversibleNetwork(n_sites, Z2, (layer,))


def _chain(monkeypatch, memory_cap, declared):
    # sampled mode, with the budget set to what one initial at a time needs
    monkeypatch.setattr(circuits, "EXACT_STATES", 2 ** 10)
    net = alternating_cnot_network(14)
    worst_case_curve(net, Q91, 3)
    memory_cap(declared[0])
    return lambda: worst_case_curve(net, Q91, 3)


def _mc_plan(monkeypatch, threads):
    # two blocks, one per worker: a barrier at the start of each block makes
    # the workers' blocks overlap in time, whatever the thread scheduling, so
    # the peak holds both working sets as the declaration counts them
    barrier, count = threading.Barrier(threads, timeout=60), montecarlo._block_counts

    def overlapping(*args):
        barrier.wait()
        return count(*args)

    monkeypatch.setattr(montecarlo, "_block_counts", overlapping)
    plan = SimulationPlan(R90, Q91, (64,), "seeded-random", 4, 2048, 1, hypercube(8))
    return lambda: window_pattern_counts(plan, threads=threads)


def _mc_plan_2d():
    rule = rule_from_json({"alphabet": [3], "linear": [[[0, 0], 1], [[-1, 0], 1], [[1, 0], 1], [[0, -1], 1], [[0, 1], 1]]})
    noise = noise_from_json({
        "kind": "permutation", "alphabet": [3],
        "perms": [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]], "q": [0.7, 0.1, 0.1, 0.1],
    })
    plan = SimulationPlan(rule, noise, (16, 16), "checkerboard", 3, 1024, 1, hypercube(2, 2))
    return lambda: window_pattern_counts(plan)


def _superadditivity():
    block = WindowDistribution(hypercube(4), Z2, np.random.default_rng(3).dirichlet(np.ones(16)))
    return lambda: check_block_superadditivity(block, 4)


ENGINES = {
    "sweep-1d": lambda *_: lambda: _from_zeros(R30, hypercube(4), 8),
    "sweep-2d": lambda *_: lambda: _from_zeros(MOORE, hypercube(2, 2), 2),
    # its light cones A + sN hold 18, 8 and 2 cells, where moore(A, s) holds 30, 12 and 2
    "sweep-2d-von-neumann": lambda *_: lambda: _from_zeros(VON_NEUMANN, CellSet([(0, 0), (0, 1)]), 3),
    "sweep-from-law": lambda *_: _from_law(R30, hypercube(4), 6),
    "push-deterministic": lambda *_: _push(R30, moore(hypercube(12), 2), hypercube(12)),
    "layer-permutation": lambda *_: lambda: _gate_zoo(16).layer_permutation(0),
    "chain": _chain,
    "mc-counts": lambda monkeypatch, *_: _mc_plan(monkeypatch, threads=2),
    "mc-counts-2d": lambda *_: _mc_plan_2d(),
    "mixing-scan": lambda *_: lambda: mixing_scan(R90, Q91, [9, 10], 0.1, 3, 64, 1),
    "superadditivity": lambda *_: _superadditivity(),
    "preimage-oracle": lambda *_: lambda: preimage_count_oracle(R30, [0] * 16),
    # every candidate pair of words an edge, and half of them
    "pair-graph-constant": lambda *_: lambda: analyze_rule(LocalRule(Z2, SPAN9, np.zeros(512, dtype=np.int64))),
    "pair-graph-balanced": lambda *_: lambda: analyze_rule(build_linear(Z2, {-4: 1, 4: 1})),
}


@pytest.mark.parametrize("engine", ENGINES)
def test_peak_within_declared_bytes(monkeypatch, memory_cap, declared, engine):
    run = ENGINES[engine](monkeypatch, memory_cap, declared)
    run()  # warm lazy imports and caches outside the measurement
    declared.clear()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert declared
    assert max(declared) / 2 < peak <= max(declared) + OBJECTS


class _Stop(Exception):
    pass


def _stop(*args):
    raise _Stop


def test_budget_admits_exact_circuit_mode_at_2_20_states(monkeypatch, declared):
    # the chain's check only: the run stops before the noise blocks are built
    monkeypatch.setattr(circuits, "_noise_blocks", _stop)
    for n_sites, least_width in ((20, 16), (21, 8)):
        net = alternating_cnot_network(n_sites)
        declared.clear()
        with pytest.raises(_Stop):
            worst_case_curve(net, Q91, 16)
        # each batch column holds three float64 arrays of the states
        width = min(circuits.CHAIN_BATCH, 1 + (MEMORY_CAP - declared[0]) // (24 * net.n_states))
        assert width >= least_width
    assert alternating_cnot_network(20).n_states <= circuits.EXACT_STATES


def test_24_site_network_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(circuits, "_noise_blocks", _stop)
    monkeypatch.setattr(ReversibleNetwork, "layer_permutation", _stop)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="bytes"):
            worst_case_curve(alternating_cnot_network(24), Q91, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < OBJECTS


def test_2d_sweep_holds_two_laws_and_the_kernels():
    # the cone tensor lies in two buffers of the largest law, 16 cells at
    # t = 1, and each reordered copy is made in the one the input is not in
    problem = ConeProblem(MOORE, Q91, hypercube(2, 2), 2, np.zeros(36, dtype=np.int64))
    exact_window_marginal(problem)[-1]
    law_bytes = 8 * 2 ** len(dependence_cone(hypercube(2, 2), MOORE, 1))
    kernel_bytes = 8 * 2 ** (len(MOORE.neighborhood) + 1)
    tracemalloc.start()
    try:
        exact_window_marginal(problem)[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * law_bytes + 2 * kernel_bytes + OBJECTS
