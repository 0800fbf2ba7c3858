"""Batch experiment runner: one process, one config file, deterministic
output files.

Subcommands mirror the experiment kinds (analyze-rule, evolve-exact,
simulate, mixing-scan, verify-bounds, circuit-mix).  Every run writes its
results into --out with a metadata header recording the artifact version,
the config hash, and the seed; re-running a config reproduces the files
byte-identically except for the timestamp line.

Exit codes: 0 ok, 1 config/schema error or a non-finite result, 2
memory budget (MEMORY_CAP) exceeded, 3 bound violation in verify-bounds mode.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import analyze_rule
from .bounds import (
    SLACK,
    BoundReport,
    bootstrap_layout,
    check_block_superadditivity,
    main_theorem_bound,
    noise_lemma_suite,
    theorem_applicable,
)
from .circuits import check_finite_bound, network_from_json, worst_case_curve
from .entropy import (
    CapExceededError,
    WindowDistribution,
    deficiency,
    entropy,
    estimate_entropy,
    mixing_time,
    pinsker_bound,
    tv_to_uniform,
)
from .exact import ConeProblem, check_evolution_bound, dependence_cone, exact_window_marginal
from .lattice import Alphabet, CellSet, diameter, hypercube
from .montecarlo import SimulationPlan, mixing_scan, tv_curve, window_pattern_counts
from .noise import noise_from_json
from .rules import rule_from_json
from .schema import first_error

KINDS = (
    "analyze-rule",
    "evolve-exact",
    "simulate",
    "mixing-scan",
    "verify-bounds",
    "circuit-mix",
)

EXIT_CONFIG = 1
EXIT_CAP = 2
EXIT_BOUND = 3


class ConfigError(Exception):
    pass


class NonFiniteOutputError(ValueError):
    """A computed number bound for an output file is inf or NaN."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad usage is a config error, exit 1
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _load_schema() -> dict:
    path = Path(__file__).parent / "schemas" / "experiment-config.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    # The shipped schema is checked against its metaschema by the tests, not
    # on every load, and so is first_error against jsonschema.
    error = first_error(_load_schema(), config)
    if error is not None:
        raise ConfigError("config schema violation at {}: {}".format(*error))
    return config


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _parse_window(doc, dim: int) -> CellSet:
    if isinstance(doc, dict) and "hypercube" in doc:
        return hypercube(int(doc["hypercube"]), int(doc.get("dim", dim)))
    if isinstance(doc, dict) and "cells" in doc:
        return CellSet([tuple(c) if isinstance(c, list) else c for c in doc["cells"]])
    raise ConfigError("window must give 'hypercube' or 'cells'")


def _window_label(window: CellSet) -> str:
    n = diameter(window)
    if window == hypercube(n, window.dim):
        return f"S_{n}"
    return f"cells({len(window)})"


class OutputWriter:
    """CSV / JSON / JSON-lines emitter with the reproducibility header.

    Each file is formatted in full before it is opened, so a non-finite
    number (refused by _fmt_cell and by every json.dumps) leaves no file."""

    def __init__(self, out_dir: str, config: dict, seed: int, fmt: str):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.meta = {
            "rcalab-version": __version__,
            "config-sha256": config_hash(config),
            "seed": seed,
            "generated-at": datetime.now(timezone.utc).isoformat(),
        }
        self.fmt = fmt

    def _write(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return path

    def _jsonl(self, name: str, docs) -> Path:
        # docs (any iterable) is dumped one dict at a time: a list of every
        # verify-bounds report's dict left its small-object arenas resident,
        # 0.3 MB on top of lab-mix's peak RSS
        lines = [_dumps({"metadata": self.meta})] + [_dumps(doc) for doc in docs]
        return self._write(f"{name}.jsonl", "\n".join(lines) + "\n")

    def table(self, name: str, columns: list[str], rows: list[list]):
        if self.fmt == "jsonl":
            return self._jsonl(name, (dict(zip(columns, row)) for row in rows))
        buf = io.StringIO()
        buf.writelines(f"# {key}={val}\n" for key, val in self.meta.items())
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt_cell(v) for v in row] for row in rows)
        return self._write(f"{name}.csv", buf.getvalue())

    def json_doc(self, name: str, doc: dict):
        return self._write(f"{name}.json", _dumps({"metadata": self.meta, **doc}, indent=2) + "\n")

    def json_lines(self, name: str, docs):
        return self._jsonl(name, docs)


def _dumps(doc, **kw) -> str:
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False, **kw)
    except ValueError as exc:
        raise NonFiniteOutputError(str(exc)) from exc


def _fmt_cell(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            raise NonFiniteOutputError(f"{v!r} in a table")
        return repr(v)
    return v


def run_analyze_rule(params: dict, seed: int, writer: OutputWriter) -> int:
    rule = rule_from_json(params["rule"])
    verdict = analyze_rule(rule)
    doc = {"rule": params["rule"], **verdict}
    writer.json_doc("analyze-rule", doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cone_problems(inst: dict) -> list[ConeProblem]:
    """One ConeProblem per t = 0..horizon of an exact-law instance (rule,
    noise, window, horizon, initial).  The initial is given once on the
    horizon's cone moore(A, rT); each t takes its restriction to moore(A, rt).
    Each problem checks its bytes as it is made, before any t is solved."""
    rule = rule_from_json(inst["rule"])
    noise = noise_from_json(inst["noise"])
    window = _parse_window(inst["window"], rule.dim)
    horizon = int(inst["horizon"])
    cone = dependence_cone(window, rule, horizon)
    kind = inst.get("initial", "all-zeros")
    if kind == "all-zeros":
        symbols = np.zeros(len(cone), dtype=np.int64)
    elif kind == "all-ones":
        symbols = np.ones(len(cone), dtype=np.int64)
    elif isinstance(kind, dict) and "pattern" in kind:
        symbols = np.asarray(kind["pattern"], dtype=np.int64)
        if symbols.shape != (len(cone),):
            raise ConfigError(
                f"initial pattern must give {len(cone)} symbols, one per cell of the "
                f"horizon cone moore(A, {rule.radius * horizon})"
            )
    else:
        raise ConfigError(f"unknown initial {kind!r}")
    pos = {c: i for i, c in enumerate(cone.cells)}
    cones = [dependence_cone(window, rule, t).cells for t in range(horizon + 1)]
    return [ConeProblem(rule, noise, window, t, symbols[[pos[c] for c in cells]]) for t, cells in enumerate(cones)]


def run_evolve_exact(params: dict, seed: int, writer: OutputWriter) -> int:
    surjective = params.get("surjective")
    rows = []
    ln2 = math.log(2.0)
    for problem in _cone_problems(params):
        marginal = exact_window_marginal(problem)
        h = entropy(marginal)
        xi = deficiency(marginal)
        tv = tv_to_uniform(marginal)
        bound = check_evolution_bound(problem, marginal, surjective=surjective)
        label = _window_label(problem.window)
        rows.append([problem.horizon, label, h, h / ln2, xi, tv, bound.rhs, bound.ok])
    writer.table(
        "evolve-exact",
        ["t", "window", "H_nats", "H_bits", "deficiency", "tv_to_uniform", "bound_rhs", "ok"],
        rows,
    )
    return 0


def run_simulate(params: dict, seed: int, writer: OutputWriter, threads: int) -> int:
    rule = rule_from_json(params["rule"])
    noise = noise_from_json(params["noise"])
    window = _parse_window(params["window"], rule.dim)
    estimator = params.get("estimator", "miller-madow")
    generator = params.get("generator", "all-zeros")
    if isinstance(generator, list):  # explicit user pattern
        generator = np.asarray(generator, dtype=np.int64)
    plan = SimulationPlan(
        rule,
        noise,
        tuple(params["sides"]),
        generator,
        int(params["horizon"]),
        int(params["replicates"]),
        seed,
        window,
        allow_wrap=bool(params.get("allow_wrap", False)),
    )
    counts = window_pattern_counts(plan, threads=threads)
    tv, se = tv_curve(counts, plan.replicates)
    n = diameter(window)
    rows = [
        [n, t, plan.generator_label, float(tv[t]), float(se[t]),
         estimate_entropy(counts[t], estimator), estimator, plan.replicates, seed]
        for t in range(plan.horizon + 1)
    ]
    writer.meta["wrap-contaminated"] = plan.wrap_contaminated
    writer.table(
        "simulate",
        ["n", "t", "generator", "tv_hat", "se", "H_hat_nats", "estimator", "R", "seed"],
        rows,
    )
    return 0


def run_mixing_scan(params: dict, seed: int, writer: OutputWriter, threads: int) -> int:
    rule = rule_from_json(params["rule"])
    noise = noise_from_json(params["noise"])
    estimates = mixing_scan(
        rule,
        noise,
        params["windows"],
        float(params["epsilon"]),
        int(params["horizon"]),
        int(params["replicates"]),
        seed,
        dim=int(params.get("dim", 1)),
        threads=threads,
        n_random=int(params.get("n_random", 8)),
    )
    rows = []
    curve_rows = []
    for n, est in sorted(estimates.items()):
        rows.append(
            [n, est.epsilon, est.t_mix, est.converged, est.monotone_within_3sigma,
             int(params["replicates"]), seed]
        )
        for label, curve in est.curves.items():
            for t, (tv, se) in enumerate(curve):
                curve_rows.append([n, t, label, float(tv), float(se)])
    writer.table(
        "mixing-scan",
        ["n", "epsilon", "t_mix", "converged", "monotone_within_3sigma", "R", "seed"],
        rows,
    )
    writer.table("mixing-curves", ["n", "t", "generator", "tv_hat", "se"], curve_rows)
    return 0


def check_pinsker(marginal: WindowDistribution) -> BoundReport:
    """Pinsker's inequality TV <= sqrt(D/2), reported as (TV, sqrt(D/2)) but
    decided in the squared form 2 TV^2 <= D + SLACK: roundoff of order 1e-15
    in the deficiency D moves sqrt(D/2) by about 1e-8 near D = 0, so only
    the nats side carries a meaningful slack."""
    tv = tv_to_uniform(marginal)
    ok = 2.0 * tv * tv <= deficiency(marginal) + SLACK
    return BoundReport("pinsker/tv-vs-deficiency", tv, pinsker_bound(marginal), ok)


def run_verify_bounds(params: dict, seed: int, writer: OutputWriter) -> int:
    # the schema refuses a listed check without its instance; by default
    # evolution and pinsker run when there is one
    exact_checks = ["evolution", "pinsker"] if "evolution_instance" in params else []
    checks = params.get("checks", ["noise-lemma", "bootstrap", "superadditivity", *exact_checks])
    reports: list[BoundReport] = []
    rng = np.random.default_rng(seed)
    if "noise-lemma" in checks:
        reports += noise_lemma_suite(
            params.get("alphabets", [[2], [3]]),
            int(params.get("instances", 100)),
            seed,
        )
    if "bootstrap" in checks:
        n_tuples = int(params.get("layout_tuples", 200))
        for _ in range(n_tuples):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            r = int(rng.integers(0, 3))
            t = int(rng.integers(0, 5))
            d = int(rng.integers(1, 3))
            layout = bootstrap_layout(n, k, r, t, d)
            reports.append(
                BoundReport(
                    claim="bootstrap/layout",
                    lhs=float(k * (n + 2 * r * t)),
                    rhs=float(layout.m),
                    ok=layout.packed(),
                    params={"n": n, "k": k, "r": r, "t": t, "d": d},
                )
            )
    if "superadditivity" in checks:
        for _ in range(int(params.get("superadditivity_instances", 20))):
            n = int(rng.integers(1, 3))
            k = 2
            t = int(rng.integers(0, 3))
            window = hypercube(n, 1)
            alphabet = Alphabet((2,))
            probs = rng.dirichlet(np.ones(2 ** n))
            block = WindowDistribution(window, alphabet, probs)
            reports.append(check_block_superadditivity(block, k, r=1, t=t))
    evolution, pinsker = "evolution" in checks, "pinsker" in checks
    if evolution or pinsker:
        inst = params["evolution_instance"]
        # one exact solve per t, shared by the rows of both checks
        for problem in _cone_problems(inst):
            marginal = exact_window_marginal(problem)
            label = _window_label(problem.window)
            rows = []
            if evolution:
                rows.append(check_evolution_bound(problem, marginal, surjective=inst.get("surjective")))
            if pinsker:
                rows.append(check_pinsker(marginal))
            for report in rows:
                report.params = {"t": problem.horizon, "window": label}
                reports.append(report)
    if "decay-envelope" in checks:
        reports += _decay_envelope_reports(params["decay_instance"])
    writer.json_lines("verify-bounds", (r.to_dict() for r in reports))
    failed = [r for r in reports if not r.ok and not r.caveat]
    print(f"verify-bounds: {len(reports) - len(failed)}/{len(reports)} ok")
    return EXIT_BOUND if failed else 0


def _decay_envelope_reports(inst: dict) -> list[BoundReport]:
    """User-supplied (alpha, beta) envelope against the exact TV curve: checks
    TV(t) <= alpha e^(-beta t) n^((d-1)/2) wherever t >= a log n + b."""
    alpha, beta = float(inst["alpha"]), float(inst["beta"])
    gate_a, gate_b = float(inst.get("a", 0.0)), float(inst.get("b", 0.0))
    reports = []
    for problem in _cone_problems(inst):
        t, n = problem.horizon, diameter(problem.window)
        if not theorem_applicable(t, n, gate_a, gate_b):
            continue
        tv = tv_to_uniform(exact_window_marginal(problem))
        envelope = main_theorem_bound(n, t, alpha, beta, problem.rule.dim)
        reports.append(
            BoundReport(
                claim="main-theorem/decay-envelope",
                lhs=tv,
                rhs=envelope,
                ok=tv <= envelope + SLACK,
                params={"t": t, "n": n, "alpha": alpha, "beta": beta},
            )
        )
    return reports


def run_circuit_mix(params: dict, seed: int, writer: OutputWriter) -> int:
    network = network_from_json(params["network"])
    noise = noise_from_json(params["noise"])
    horizon = int(params["horizon"])
    epsilon = float(params.get("epsilon", 0.01))
    curves = worst_case_curve(network, noise, horizon)
    d_curve, _, mode = curves
    t_mix, converged = mixing_time(d_curve, epsilon)
    h_total = network.n_sites * network.alphabet.h_max
    rows = [
        [r.params["t"], r.lhs, r.rhs, h_total - r.params["xi_max"], r.params["xi_max"]]
        for r in check_finite_bound(network, noise, curves)
    ]
    writer.meta["sup-mode"] = mode
    writer.table("circuit-mix", ["t", "d_phi", "bound_rhs", "H", "Xi"], rows)
    writer.table(
        "circuit-mix-summary",
        ["epsilon", "t_mix", "converged", "mode"],
        [[epsilon, t_mix, converged, mode]],
    )
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="rcalab", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=int(os.environ.get("RCA_LAB_THREADS", "1")),
            help="worker threads (default: RCA_LAB_THREADS or 1)",
        )
        p.add_argument("--format", choices=["csv", "jsonl"], help="table format")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if config["kind"] != args.kind:
            raise ConfigError(
                f"config kind {config['kind']!r} does not match subcommand {args.kind!r}"
            )
        seed = args.seed if args.seed is not None else config.get("seed")
        if seed is None and args.kind in ("simulate", "mixing-scan", "verify-bounds"):
            raise ConfigError("stochastic kinds require a seed")
        seed = int(seed or 0)
        fmt = args.format or config.get("format", "csv")
        params = config.get("params", {})
        writer = OutputWriter(args.out, config, seed, fmt)
        if args.kind == "analyze-rule":
            return run_analyze_rule(params, seed, writer)
        if args.kind == "evolve-exact":
            return run_evolve_exact(params, seed, writer)
        if args.kind == "simulate":
            return run_simulate(params, seed, writer, args.threads)
        if args.kind == "mixing-scan":
            return run_mixing_scan(params, seed, writer, args.threads)
        if args.kind == "verify-bounds":
            return run_verify_bounds(params, seed, writer)
        return run_circuit_mix(params, seed, writer)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteOutputError as exc:
        print(f"error: non-finite result, file not written: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: invalid config value: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
