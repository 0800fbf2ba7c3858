import csv
import dataclasses
import importlib
import json
from pathlib import Path

import jsonschema
import pytest

from rcalab import cli, montecarlo
from rcalab.cli import EXIT_BOUND, EXIT_CAP, EXIT_CONFIG, main
from rcalab.schema import first_error

NOISE = {"kind": "additive", "alphabet": [2], "q": ["0.9", "0.1"]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    meta = {}
    rows = []
    with open(path) as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        rows = [dict(zip(header, r)) for r in reader]
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, val = line[2:].strip().partition("=")
                meta[key] = val
    return meta, rows


def test_analyze_rule(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "analyze-rule", "params": {"rule": {"elementary": 90}}})
    rc = main(["analyze-rule", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "analyze-rule.json").read_text())
    assert doc["surjective"] is True
    assert doc["injective"] is False
    assert doc["balanced"] is True
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["surjective"] is True


def test_kind_mismatch_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"kind": "analyze-rule", "params": {"rule": {"elementary": 90}}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_schema_violation(tmp_path):
    cfg = write_config(tmp_path, {"kind": "unknown-kind"})
    assert main(["analyze-rule", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_shipped_schema_is_valid():
    # load_config relies on this instead of checking the schema on every load
    jsonschema.Draft202012Validator.check_schema(cli._load_schema())


def test_missing_config_file(tmp_path):
    assert main(["analyze-rule", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_seed_required_for_stochastic(tmp_path):
    doc = {
        "kind": "simulate",
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE, "sides": [12],
            "generator": "all-zeros", "horizon": 2, "replicates": 100,
            "window": {"hypercube": 1},
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    # --seed flag satisfies the requirement
    assert main(["simulate", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "o")]) == 0


def test_evolve_exact_output(tmp_path):
    doc = {
        "kind": "evolve-exact",
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE,
            "window": {"hypercube": 2}, "horizon": 3, "initial": "all-zeros",
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["evolve-exact", "--config", cfg, "--out", str(out)]) == 0
    meta, rows = read_csv(out / "evolve-exact.csv")
    assert meta["rcalab-version"]
    assert len(meta["config-sha256"]) == 64
    assert len(rows) == 4
    assert rows[0]["window"] == "S_2"
    assert all(r["ok"] == "True" for r in rows)
    # H grows toward 2 ln 2
    assert float(rows[3]["H_nats"]) > float(rows[1]["H_nats"])
    assert float(rows[0]["H_bits"]) == pytest.approx(0.0)


def test_evolve_exact_cap_exit(tmp_path):
    # the sweep of the horizon-30 cone needs far more than MEMORY_CAP
    doc = {
        "kind": "evolve-exact",
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE,
            "window": {"hypercube": 4}, "horizon": 30, "initial": "all-zeros",
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["evolve-exact", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CAP


def test_simulate_count_bytes_cap_exit(tmp_path, monkeypatch):
    # 2^24 window patterns over 9 times: a 1.2 GB accumulator, refused before
    # it is allocated or any block is stepped
    def refuse(*args):
        raise AssertionError("blocks were counted past the byte cap")

    monkeypatch.setattr(montecarlo, "_block_counts", refuse)
    doc = {
        "kind": "simulate",
        "seed": 3,
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE, "sides": [41],
            "generator": "all-zeros", "horizon": 8, "replicates": 10,
            "window": {"hypercube": 24},
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CAP


def test_simulate_determinism_modulo_timestamp(tmp_path):
    doc = {
        "kind": "simulate",
        "seed": 42,
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE, "sides": [14],
            "generator": "all-zeros", "horizon": 3, "replicates": 3000,
            "window": {"hypercube": 2},
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    strip = lambda p: [l for l in Path(p).read_text().splitlines() if "generated-at" not in l]
    assert strip(tmp_path / "a" / "simulate.csv") == strip(tmp_path / "b" / "simulate.csv")


def test_simulate_jsonl_format(tmp_path):
    doc = {
        "kind": "simulate",
        "seed": 1,
        "format": "jsonl",
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE, "sides": [14],
            "generator": "seeded-random", "horizon": 2, "replicates": 500,
            "window": {"hypercube": 1},
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "simulate.jsonl").read_text().splitlines()
    assert "metadata" in json.loads(lines[0])
    row = json.loads(lines[1])
    assert row["t"] == 0 and row["estimator"] == "miller-madow"


def test_mixing_scan_row(tmp_path):
    doc = {
        "kind": "mixing-scan",
        "seed": 9,
        "params": {
            "rule": {"alphabet": [2], "linear": [[[0], 1]]},
            "noise": NOISE,
            "windows": [1],
            "epsilon": 0.1,
            "horizon": 14,
            "replicates": 20000,
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mixing-scan", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "mixing-scan.csv")
    assert rows[0]["t_mix"] == "8"
    assert rows[0]["converged"] == "True"
    _, curves = read_csv(out / "mixing-curves.csv")
    assert len(curves) > 10


def test_verify_bounds_ok_and_failure_exit(tmp_path):
    doc = {
        "kind": "verify-bounds",
        "seed": 3,
        "params": {"checks": ["noise-lemma"], "instances": 10},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "verify-bounds.jsonl").read_text().splitlines()
    reports = [json.loads(l) for l in lines[1:]]
    assert reports and all(r["ok"] for r in reports)
    assert {"claim", "lhs", "rhs", "ok", "params"} <= set(reports[0])


def test_verify_bounds_decay_envelope_exit_codes(tmp_path):
    instance = {
        "rule": {"elementary": 90}, "noise": NOISE,
        "window": {"hypercube": 1}, "horizon": 4,
        "alpha": 2.0, "beta": 0.05,
    }
    ok_doc = {
        "kind": "verify-bounds", "seed": 1,
        "params": {"checks": ["decay-envelope"], "decay_instance": instance},
    }
    cfg = write_config(tmp_path, ok_doc, "ok.json")
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    # an absurdly tight envelope must fail with the bound-violation exit code
    bad = dict(instance, alpha=1e-6, beta=2.0)
    bad_doc = {
        "kind": "verify-bounds", "seed": 1,
        "params": {"checks": ["decay-envelope"], "decay_instance": bad},
    }
    cfg = write_config(tmp_path, bad_doc, "bad.json")
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "bad")]) == EXIT_BOUND
    lines = (tmp_path / "bad" / "verify-bounds.jsonl").read_text().splitlines()
    reports = [json.loads(l) for l in lines[1:]]
    assert any(not r["ok"] for r in reports)


def test_circuit_mix_output(tmp_path):
    doc = {
        "kind": "circuit-mix",
        "params": {
            "network": {
                "sites": 4,
                "alphabet": [2],
                "layers": [
                    [{"gate": "cadd", "sites": [0, 1]}, {"gate": "cadd", "sites": [2, 3]}],
                    [{"gate": "cadd", "sites": [1, 2]}, {"gate": "cadd", "sites": [3, 0]}],
                ],
                "schedule": "cycle",
            },
            "noise": NOISE,
            "horizon": 10,
            "epsilon": 0.05,
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["circuit-mix", "--config", cfg, "--out", str(out)]) == 0
    meta, rows = read_csv(out / "circuit-mix.csv")
    assert meta["sup-mode"] == "exact"
    assert len(rows) == 11
    d = [float(r["d_phi"]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(d, d[1:]))
    assert all(float(r["d_phi"]) <= float(r["bound_rhs"]) + 1e-9 for r in rows)
    _, summary = read_csv(out / "circuit-mix-summary.csv")
    assert summary[0]["converged"] == "True"


EPSILON_PARAMS = {
    "circuit-mix": {
        "network": {
            "sites": 3,
            "alphabet": [2],
            "layers": [[{"gate": "cadd", "sites": [0, 1]}], [{"gate": "cadd", "sites": [1, 2]}]],
        },
        "noise": NOISE,
        "horizon": 4,
    },
    "mixing-scan": {
        "rule": {"elementary": 90},
        "noise": NOISE,
        "windows": [1],
        "horizon": 4,
        "replicates": 100,
    },
}


# epsilon must be a JSON number in (0, 1): a string is refused, in range or
# not, and so are NaN and Infinity, which json.load reads
@pytest.mark.parametrize(
    "epsilon",
    [
        0.0, 1.0, 1.5, -0.2, pytest.param("1.5", id="str-1.5"), pytest.param("0.25", id="str-0.25"),
        pytest.param(float("nan"), id="nan"), pytest.param(float("inf"), id="inf"),
    ],
)
@pytest.mark.parametrize("kind", ["circuit-mix", "mixing-scan"])
def test_bad_epsilon_refused_at_load(tmp_path, monkeypatch, capsys, kind, epsilon):
    def engine(*args, **kwargs):
        raise AssertionError("engine entered")

    monkeypatch.setattr(cli, "worst_case_curve", engine)
    monkeypatch.setattr(montecarlo, "window_pattern_counts", engine)
    params = dict(EPSILON_PARAMS[kind], epsilon=epsilon)
    cfg = write_config(tmp_path, {"kind": kind, "seed": 1, "params": params})
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "$.params.epsilon" in capsys.readouterr().err


def _without(params, key):
    return {k: v for k, v in params.items() if k != key}


CONE_INSTANCE = {"rule": {"elementary": 90}, "noise": NOISE, "window": {"hypercube": 1}, "horizon": 2}
DECAY_INSTANCE = dict(CONE_INSTANCE, alpha=2.0, beta=0.05)
SIMULATE_PARAMS = {
    "rule": {"elementary": 90}, "noise": NOISE, "sides": [12],
    "window": {"hypercube": 1}, "horizon": 2, "replicates": 100,
}
PERMUTATION_NOISE = {"kind": "permutation", "alphabet": [2], "perms": [[0, 1], [1, 0]], "q": [0.9, 0.1]}


# each of these passed load before the per-kind params schemas, and failed
# later with no JSON path or with a traceback; a cone instance's cap key, once
# a state limit, would otherwise be dropped without a word, and a misspelt
# verify-bounds check or a bad count ran nothing or truncated without a word
@pytest.mark.parametrize(
    "kind, params, path",
    [
        ("mixing-scan", _without(dict(EPSILON_PARAMS["mixing-scan"], epsilon=0.1), "noise"), "$.params"),
        ("mixing-scan", dict(EPSILON_PARAMS["mixing-scan"], epsilon=0.1, windows=[]), "$.params.windows"),
        ("circuit-mix", dict(EPSILON_PARAMS["circuit-mix"], horizon=-1), "$.params.horizon"),
        ("analyze-rule", {"rule": {"elementary": 256}}, "$.params.rule.elementary"),
        (
            "verify-bounds",
            {"checks": ["decay-envelope"], "decay_instance": _without(DECAY_INSTANCE, "noise")},
            "$.params.decay_instance",
        ),
        ("simulate", dict(SIMULATE_PARAMS, noise=_without(PERMUTATION_NOISE, "perms")), "$.params.noise"),
        ("mixing-scan", dict(EPSILON_PARAMS["mixing-scan"], epsilon=0.1, replicates=0), "$.params.replicates"),
        ("simulate", dict(SIMULATE_PARAMS, replicates=2.5), "$.params.replicates"),
        ("evolve-exact", dict(CONE_INSTANCE, cap=4096), "$.params.cap"),
        ("simulate", dict(SIMULATE_PARAMS, estimator="millermadow"), "$.params.estimator"),
        ("verify-bounds", {"checks": ["noise_lemma"]}, "$.params.checks[0]"),
        ("verify-bounds", {"checks": []}, "$.params.checks"),
        ("verify-bounds", {"instances": -3}, "$.params.instances"),
        ("verify-bounds", {"layout_tuples": 2.5}, "$.params.layout_tuples"),
        ("verify-bounds", {"superadditivity_instances": 0}, "$.params.superadditivity_instances"),
        ("verify-bounds", {"alphabets": []}, "$.params.alphabets"),
        ("verify-bounds", {"alphabets": [3]}, "$.params.alphabets[0]"),
        ("verify-bounds", {"checks": ["pinsker"]}, "$.params"),
        ("verify-bounds", {"checks": ["noise-lemma", "evolution"]}, "$.params"),
        ("verify-bounds", {"checks": ["decay-envelope"], "evolution_instance": CONE_INSTANCE}, "$.params"),
        ("simulate", dict(SIMULATE_PARAMS, noise=dict(NOISE, q=[float("nan"), "0.1"])), "$.params.noise.q[0]"),
    ],
    ids=["scan-no-noise", "scan-no-windows", "circuit-negative-horizon", "rule-out-of-range",
         "decay-instance-no-noise", "permutation-noise-no-perms", "scan-no-replicates",
         "simulate-fractional-replicates", "cone-instance-cap", "simulate-unknown-estimator",
         "bounds-misspelt-check", "bounds-no-checks", "bounds-negative-instances",
         "bounds-fractional-layout-tuples", "bounds-no-superadditivity-instances",
         "bounds-no-alphabets", "bounds-alphabet-not-factors", "bounds-pinsker-no-instance",
         "bounds-evolution-no-instance", "bounds-decay-no-instance", "noise-q-nan"],
)
def test_bad_params_refused_at_load(tmp_path, monkeypatch, capsys, kind, params, path):
    def engine(*args, **kwargs):
        raise AssertionError("engine entered")

    monkeypatch.setattr(cli, "worst_case_curve", engine)
    monkeypatch.setattr(cli, "exact_window_marginal", engine)
    monkeypatch.setattr(montecarlo, "window_pattern_counts", engine)
    monkeypatch.setattr(cli, "window_pattern_counts", engine)
    cfg = write_config(tmp_path, {"kind": kind, "seed": 1, "params": params})
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert f"error: config schema violation at {path}:" in capsys.readouterr().err


# one config per kind that runs an engine with a byte count
BUDGETED_RUNS = {
    "evolve-exact": CONE_INSTANCE,
    "simulate": SIMULATE_PARAMS,
    "mixing-scan": dict(EPSILON_PARAMS["mixing-scan"], epsilon=0.1),
    "verify-bounds": {"checks": ["evolution"], "evolution_instance": CONE_INSTANCE},
    "circuit-mix": EPSILON_PARAMS["circuit-mix"],
}


@pytest.mark.parametrize("kind", BUDGETED_RUNS)
def test_budget_exceeded_is_exit_2(tmp_path, capsys, memory_cap, kind):
    memory_cap(64)
    cfg = write_config(tmp_path, {"kind": kind, "seed": 1, "params": BUDGETED_RUNS[kind]})
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == EXIT_CAP
    assert not list(out.glob("*"))
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bytes, over the budget of 64 bytes" in err


def test_benchmark_configs_validate(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    schema = cli._load_schema()
    validator = jsonschema.Draft202012Validator(schema)
    for name in workloads.WORKLOADS:
        for step in workloads.steps(name, workloads.DEFAULT_SEED):
            assert not list(validator.iter_errors(step.config)), (name, step.kind)
            assert first_error(schema, step.config) is None, (name, step.kind)


def test_simulate_user_pattern_generator(tmp_path):
    doc = {
        "kind": "simulate",
        "seed": 6,
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE, "sides": [5],
            "generator": [0, 1, 1, 0, 1], "horizon": 3, "replicates": 200,
            "window": {"hypercube": 1}, "allow_wrap": True,
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    meta, rows = read_csv(out / "simulate.csv")
    assert meta["wrap-contaminated"] == "True"
    assert rows[0]["generator"] == "pattern"


def test_rca_lab_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RCA_LAB_THREADS", "2")
    doc = {
        "kind": "simulate",
        "seed": 5,
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE, "sides": [14],
            "generator": "all-zeros", "horizon": 2, "replicates": 3000,
            "window": {"hypercube": 1},
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "env")]) == 0


def test_check_pinsker_decides_in_nats(monkeypatch):
    from rcalab import cli
    from rcalab.entropy import WindowDistribution, pinsker_bound, tv_to_uniform
    from rcalab.lattice import Alphabet, CellSet, hypercube

    # uniform up to 1e-11, like the exact Z3 window law a few steps in: the
    # deficiency rounds to 0, so sqrt(D/2) = 0 sits below TV, but
    # 2 TV^2 <= D holds within the nats-side slack
    probs = [1 / 9] * 9
    probs[0] += 1e-11
    probs[1] -= 1e-11
    near = WindowDistribution(hypercube(2), Alphabet((3,)), probs)
    check = cli.check_pinsker(near)
    assert check.rhs == 0.0 and check.lhs > 1e-12
    assert check.ok

    skew = WindowDistribution(CellSet([0]), Alphabet((3,)), [0.5, 0.25, 0.25])
    check = cli.check_pinsker(skew)
    assert check.ok
    assert (check.lhs, check.rhs) == (tv_to_uniform(skew), pinsker_bound(skew))
    # an under-reported deficiency makes the row false
    monkeypatch.setattr(cli, "deficiency", lambda p: 0.0)
    assert not cli.check_pinsker(skew).ok
    # with D read as 0 the slack lets TV up to sqrt(SLACK / 2) ~ 2.2e-5 pass
    for eps, ok in [(1e-6, True), (2e-5, True), (3e-5, False), (1e-4, False)]:
        probs = [1 / 9] * 9
        probs[0] += eps
        probs[1] -= eps
        check = cli.check_pinsker(WindowDistribution(hypercube(2), Alphabet((3,)), probs))
        assert check.lhs == pytest.approx(eps, rel=1e-6)
        assert bool(check.ok) == ok


@pytest.mark.parametrize("kind", ["evolve-exact", "verify-bounds"])
def test_exact_law_solved_once_per_step(tmp_path, monkeypatch, kind):
    # each t needs one exact window law, shared by the entropy floor and the
    # Pinsker row; count the solves wherever they are called from
    from rcalab import cli, exact

    solve = exact.exact_window_marginal
    calls = []

    def counted(problem):
        calls.append(problem.horizon)
        return solve(problem)

    monkeypatch.setattr(cli, "exact_window_marginal", counted)
    monkeypatch.setattr(exact, "exact_window_marginal", counted)
    horizon = 3
    instance = {
        "rule": {"elementary": 90}, "noise": NOISE,
        "window": {"hypercube": 2}, "horizon": horizon, "initial": "all-zeros",
    }
    if kind == "evolve-exact":
        doc = {"kind": kind, "params": instance}
    else:
        doc = {
            "kind": kind, "seed": 1,
            "params": {"checks": ["evolution", "pinsker"], "evolution_instance": instance},
        }
    cfg = write_config(tmp_path, doc)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == list(range(horizon + 1))


def test_verify_bounds_bootstrap_rows_are_checks(tmp_path, monkeypatch):
    from rcalab import bounds, cli

    doc = {"kind": "verify-bounds", "seed": 3, "params": {"checks": ["bootstrap"], "layout_tuples": 12}}
    cfg = write_config(tmp_path, doc)

    def rows(out):
        lines = (out / "verify-bounds.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines[1:]]

    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "good")]) == 0
    good = rows(tmp_path / "good")
    assert len(good) == 12 and all(r["ok"] and r["lhs"] == r["rhs"] for r in good)

    def stacked(n, k, r, t, d):
        # every block on the first one: overlapping whenever k**d > 1
        layout = bounds.bootstrap_layout(n, k, r, t, d)
        return dataclasses.replace(layout, blocks=(layout.blocks[0],) * len(layout.blocks))

    monkeypatch.setattr(cli, "bootstrap_layout", stacked)
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "stacked")]) == EXIT_BOUND
    assert [r["ok"] for r in rows(tmp_path / "stacked")] == [r["params"]["k"] ** r["params"]["d"] == 1 for r in good]

    def shrunk(n, k, r, t, d):
        return dataclasses.replace(bounds.bootstrap_layout(n, k, r, t, d), m=k * n)

    monkeypatch.setattr(cli, "bootstrap_layout", shrunk)
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "shrunk")]) == EXIT_BOUND
    assert [r["ok"] for r in rows(tmp_path / "shrunk")] == [r["params"]["r"] * r["params"]["t"] == 0 for r in good]


@pytest.mark.parametrize(
    "rule, checks, claims",
    [
        # rule 128 is not surjective: a Pinsker-only run must not reach the
        # evolution bound, which refuses such a rule
        ({"elementary": 128}, ["pinsker"], ["pinsker/tv-vs-deficiency"]),
        ({"elementary": 90}, ["evolution"], ["evolution/entropy-floor"]),
        ({"elementary": 90}, ["pinsker", "evolution"], ["evolution/entropy-floor", "pinsker/tv-vs-deficiency"]),
    ],
    ids=["pinsker", "evolution", "both"],
)
def test_verify_bounds_writes_the_exact_rows_listed(tmp_path, monkeypatch, rule, checks, claims):
    if "evolution" not in checks:
        def refuse(*args, **kwargs):
            raise AssertionError("evolution bound checked")

        monkeypatch.setattr(cli, "check_evolution_bound", refuse)
    instance = dict(CONE_INSTANCE, rule=rule)
    doc = {"kind": "verify-bounds", "seed": 1, "params": {"checks": checks, "evolution_instance": instance}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "verify-bounds.jsonl").read_text().splitlines()[1:]]
    assert [(r["claim"], r["params"]["t"]) for r in rows] == [(c, t) for t in range(3) for c in claims]


def test_verify_bounds_checks_each_layout_once(tmp_path, monkeypatch):
    # the bootstrap row's packed() is the check, and the superadditivity
    # instance checks its own layout: one call per layout
    from rcalab import bounds

    packed = bounds.BootstrapLayout.packed
    calls = []
    monkeypatch.setattr(bounds.BootstrapLayout, "packed", lambda self: calls.append(self) or packed(self))
    params = {"checks": ["bootstrap", "superadditivity"], "layout_tuples": 200, "superadditivity_instances": 40}
    cfg = write_config(tmp_path, {"kind": "verify-bounds", "seed": 1, "params": params})
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 240


def test_evolve_exact_pattern_initial_on_horizon_cone(tmp_path, capsys):
    from rcalab.entropy import entropy
    from rcalab.exact import ConeProblem, exact_window_marginal
    from rcalab.lattice import hypercube
    from rcalab.noise import noise_from_json
    from rcalab.rules import build_elementary

    # moore(S_2, 2) = cells -2..3; each t reads the pattern on moore(S_2, t)
    pattern = [1, 0, 1, 1, 0, 1]
    params = {
        "rule": {"elementary": 90}, "noise": NOISE,
        "window": {"hypercube": 2}, "horizon": 2, "initial": {"pattern": pattern},
    }
    cfg = write_config(tmp_path, {"kind": "evolve-exact", "params": params})
    out = tmp_path / "out"
    assert main(["evolve-exact", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "evolve-exact.csv")
    assert [int(r["t"]) for r in rows] == [0, 1, 2]
    assert float(rows[0]["tv_to_uniform"]) == 0.75  # a point mass on 4 patterns
    rule, noise = build_elementary(90), noise_from_json(NOISE)
    for t, sub in ((1, pattern[1:5]), (2, pattern)):
        law = exact_window_marginal(ConeProblem(rule, noise, hypercube(2), t, sub))
        assert float(rows[t]["H_nats"]) == entropy(law)

    bad = dict(params, initial={"pattern": pattern[:4]})
    cfg = write_config(tmp_path, {"kind": "evolve-exact", "params": bad}, "bad.json")
    assert main(["evolve-exact", "--config", cfg, "--out", str(tmp_path / "bad")]) == EXIT_CONFIG
    assert "must give 6 symbols" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["evolution_instance", "decay_instance"])
def test_verify_bounds_instance_honours_cap(tmp_path, monkeypatch, memory_cap, declared, key):
    from rcalab import cli

    solve = cli.exact_window_marginal
    calls = []
    monkeypatch.setattr(cli, "exact_window_marginal", lambda p: calls.append(p) or solve(p))
    instance = {
        "rule": {"elementary": 90}, "noise": NOISE,
        "window": {"hypercube": 2}, "horizon": 3, "alpha": 2.0, "beta": 0.05,
    }
    check = {"evolution_instance": "evolution", "decay_instance": "decay-envelope"}[key]
    doc = {"kind": "verify-bounds", "seed": 1, "params": {"checks": [check], key: instance}}
    cfg = write_config(tmp_path, doc)
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "free")]) == 0
    # the t = 3 problem's sweep holds the most
    need = max(declared)
    for cap, code in ((need, 0), (need - 1, EXIT_CAP)):
        memory_cap(cap)
        calls.clear()
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / str(cap))]) == code
        # a budget below the largest sweep fails before any t is solved
        assert bool(calls) == (code == 0)


def test_verify_bounds_non_finite_output_is_exit_1(tmp_path, capsys):
    # alpha e^(-beta t) n^((d-1)/2) = 1e308 * 2 overflows to inf at t = 0
    instance = {
        "rule": {"alphabet": [2], "neighborhood": [[0, 0], [1, 0]], "table": [0, 1, 1, 0]},
        "noise": NOISE,
        "window": {"hypercube": 4, "dim": 2},
        "horizon": 0, "alpha": 1e308, "beta": 0.5,
    }
    doc = {
        "kind": "verify-bounds", "seed": 1,
        "params": {"checks": ["decay-envelope"], "decay_instance": instance},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify-bounds", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "verify-bounds.jsonl").exists()
    err = capsys.readouterr().err
    assert "non-finite result" in err and "config" not in err


@pytest.mark.parametrize(
    "fmt, method",
    [("csv", "table"), ("jsonl", "table"), ("csv", "json_doc"), ("csv", "json_lines")],
)
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_writer_refuses_non_finite_before_opening(tmp_path, fmt, method, bad):
    from rcalab.cli import OutputWriter

    writer = OutputWriter(str(tmp_path), {"kind": "simulate"}, 0, fmt)
    args = {
        "table": (["x", "y"], [[1.0, 2], [bad, 3]]),
        "json_doc": ({"x": {"y": [1.0, bad]}},),
        "json_lines": ([{"x": 1.0}, {"x": bad}],),
    }[method]
    with pytest.raises(ValueError):
        getattr(writer, method)("out", *args)
    assert list(tmp_path.iterdir()) == []
