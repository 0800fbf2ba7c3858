"""The benchmark's three workloads: fixed sequences of `rcalab` CLI steps on
configs generated from a workload seed.

The seed drives the Monte Carlo seeds, the verify-bounds seed and the random
radius-4 rule table.  The exact steps (rule 30, the circuit, the two
left-permutive rules) do not depend on it.

Why these workloads:
- mc-scan is criterion 8's shape at a fifth of the replicates: almost all of
  its time is the MC block-step (Philox draw, inverse CDF, rule lookup, group
  add) on a binary additive alphabet, single-threaded, with no exact engine.
- exact-laws runs both exact-law engines (dependence-cone enumeration on the
  non-linear rule 30, the reversible circuit chain with a Toffoli layer) with
  their per-site noise convolutions and no MC.
- lab-mix uses the MC layer differently (two threads, permutation noise, a
  product alphabet, 2D), sends linear rules through the exact engine inside
  verify-bounds, and is the only workload for the decision procedures and
  the bound checkers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1

WORKLOADS = ("mc-scan", "exact-laws", "lab-mix")

Z2_NOISE = {"kind": "additive", "alphabet": [2], "q": ["0.9", "0.1"]}


@dataclass(frozen=True)
class Step:
    """One CLI call: `rcalab <kind> --config <config> --threads <threads>`."""

    kind: str
    config: dict
    threads: int = 1


def _derived_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


def _radius4_rule(table) -> dict:
    return {
        "alphabet": [2],
        "neighborhood": [[o] for o in range(-4, 5)],
        "table": [int(v) for v in table],
    }


def _left_permutive(table_seed: int) -> dict:
    """f(x_-4..x_4) = x_-4 + g(x_-3..x_4) mod 2 for a fixed random g; the
    first offset is the most significant digit of the table index."""
    g = np.random.default_rng(table_seed).integers(0, 2, size=256)
    codes = np.arange(512)
    return _radius4_rule((codes >> 8) ^ g[codes & 255])


def mc_scan(seed: int) -> list[Step]:
    (mc_seed,) = _derived_seeds(seed, 1)
    config = {
        "kind": "mixing-scan",
        "seed": mc_seed,
        "params": {
            "rule": {"elementary": 90},
            "noise": Z2_NOISE,
            "windows": [1, 2, 4, 8],
            "epsilon": 0.1,
            "horizon": 12,
            "replicates": 20480,
            "n_random": 8,
        },
    }
    return [Step("mixing-scan", config)]


def _brick_layers(n: int) -> list[list[dict]]:
    even = [{"gate": "cadd", "sites": [i, i + 1]} for i in range(0, n - 1, 2)]
    odd = [{"gate": "cadd", "sites": [i, i + 1]} for i in range(1, n - 1, 2)]
    odd.append({"gate": "cadd", "sites": [n - 1, 0]})
    return [even, odd]


def exact_laws(seed: int) -> list[Step]:
    evolve = {
        "kind": "evolve-exact",
        "params": {
            "rule": {"elementary": 30},
            "noise": Z2_NOISE,
            "window": {"hypercube": 4},
            "horizon": 8,
            "initial": "all-zeros",
        },
    }
    toffoli = [{"gate": "toffoli", "sites": [i, i + 1, i + 2]} for i in range(0, 9, 3)]
    circuit = {
        "kind": "circuit-mix",
        "params": {
            "network": {
                "sites": 10,
                "alphabet": [2],
                "layers": _brick_layers(10) + [toffoli],
                "schedule": "cycle",
            },
            "noise": Z2_NOISE,
            "horizon": 40,
        },
    }
    return [Step("evolve-exact", evolve), Step("circuit-mix", circuit)]


def _second_order_rule90() -> dict:
    from rcalab.rules import build_elementary, lift_second_order, rule_to_json

    return rule_to_json(lift_second_order(build_elementary(90)))


def lab_mix(seed: int) -> list[Step]:
    sim_z3, sim_pair, bounds_seed, table_seed = _derived_seeds(seed, 4)
    von_neumann = [[[0, 0], 1], [[-1, 0], 1], [[1, 0], 1], [[0, -1], 1], [[0, 1], 1]]
    simulate_2d = {
        "kind": "simulate",
        "seed": sim_z3,
        "params": {
            "rule": {"alphabet": [3], "linear": von_neumann},
            "noise": {
                "kind": "permutation",
                "alphabet": [3],
                "perms": [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]],
                "q": ["0.7", "0.1", "0.1", "0.1"],
            },
            "window": {"hypercube": 2, "dim": 2},
            "sides": [15, 15],
            "horizon": 6,
            "replicates": 8192,
            "generator": "checkerboard",
        },
    }
    simulate_pair = {
        "kind": "simulate",
        "seed": sim_pair,
        "params": {
            "rule": _second_order_rule90(),
            "noise": {"kind": "additive", "alphabet": [2, 2], "q": ["0.85", "0.05", "0.05", "0.05"]},
            "window": {"hypercube": 3},
            "sides": [40],
            "horizon": 16,
            "replicates": 20480,
            "generator": "seeded-random",
        },
    }
    verify = {
        "kind": "verify-bounds",
        "seed": bounds_seed,
        "params": {
            "checks": [
                "noise-lemma", "bootstrap", "superadditivity", "evolution", "pinsker",
                "decay-envelope",
            ],
            "alphabets": [[2], [3]],
            "instances": 200,
            "layout_tuples": 200,
            "superadditivity_instances": 40,
            "evolution_instance": {
                "rule": {"alphabet": [3], "linear": [[[0], 1], [[1], 1]]},
                "noise": {"kind": "additive", "alphabet": [3], "q": ["0.5", "0.25", "0.25"]},
                "window": {"hypercube": 2},
                "horizon": 6,
            },
            "decay_instance": {
                "rule": {"elementary": 150},
                "noise": Z2_NOISE,
                "window": {"hypercube": 4},
                "horizon": 6,
                "alpha": 1.0,
                "beta": 0.05,
            },
        },
    }
    random_table = np.random.default_rng(table_seed).integers(0, 2, size=512)
    rules = [_left_permutive(101), _left_permutive(202), _radius4_rule(random_table)]
    return [
        Step("simulate", simulate_2d, threads=2),
        Step("simulate", simulate_pair, threads=2),
        Step("verify-bounds", verify),
    ] + [Step("analyze-rule", {"kind": "analyze-rule", "params": {"rule": r}}) for r in rules]


def steps(workload: str, seed: int) -> list[Step]:
    return {"mc-scan": mc_scan, "exact-laws": exact_laws, "lab-mix": lab_mix}[workload](seed)
