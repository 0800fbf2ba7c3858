import csv
import dataclasses
import json
from pathlib import Path

import pytest

from rcalab import montecarlo
from rcalab.cli import EXIT_BOUND, EXIT_CAP, EXIT_CONFIG, main

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
    doc = {
        "kind": "evolve-exact",
        "params": {
            "rule": {"elementary": 90}, "noise": NOISE,
            "window": {"hypercube": 4}, "horizon": 30, "initial": "all-zeros",
            "cap": 4096,
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

    def broken(n, k, r, t, d):
        raise AssertionError("moore(Q_w, rt) blocks leave S_m or overlap")

    monkeypatch.setattr(cli, "bootstrap_layout", broken)
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "broken")]) == EXIT_BOUND
    failed = rows(tmp_path / "broken")
    assert len(failed) == 12 and not any(r["ok"] for r in failed)
    assert all("overlap" in r["params"]["error"] for r in failed)


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
def test_verify_bounds_instance_honours_cap(tmp_path, monkeypatch, key):
    from rcalab import cli

    solve = cli.exact_window_marginal
    calls = []
    monkeypatch.setattr(cli, "exact_window_marginal", lambda p: calls.append(p) or solve(p))
    # the horizon cone moore(S_2, 3) has 8 cells, 256 states
    instance = {
        "rule": {"elementary": 90}, "noise": NOISE,
        "window": {"hypercube": 2}, "horizon": 3, "alpha": 2.0, "beta": 0.05,
    }
    check = {"evolution_instance": "evolution", "decay_instance": "decay-envelope"}[key]
    for cap, code in ((256, 0), (255, EXIT_CAP)):
        doc = {
            "kind": "verify-bounds", "seed": 1,
            "params": {"checks": [check], key: dict(instance, cap=cap)},
        }
        cfg = write_config(tmp_path, doc, f"cap{cap}.json")
        calls.clear()
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / str(cap))]) == code
        # a cap below the horizon cone fails before any t is solved
        assert bool(calls) == (code == 0)


def test_verify_bounds_non_finite_output_is_exit_1(tmp_path):
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
