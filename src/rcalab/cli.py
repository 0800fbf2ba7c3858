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
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis
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
    check_bytes,
    deficiency,
    entropy,
    estimate_entropy,
    mixing_time,
    pinsker_bound,
    tv_to_uniform,
)
from .exact import (
    ConeProblem,
    check_evolution_bound,
    check_surjective_step_bound,
    dependence_cone,
    exact_window_marginal,
)
from .lattice import Alphabet, CellSet, diameter, hypercube, moore
from .montecarlo import SimulationPlan, mixing_scan, tv_curve, window_pattern_counts
from .noise import NoiseModel, noise_from_json
from .rules import LocalRule, rule_from_json
from .schema import first_error

# CPython's built-in SHA-256 (the same digest as hashlib's): hashlib maps
# OpenSSL's libcrypto, about 3.3 MB resident, for the one digest of a header
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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
    # on every load, and so is first_error against jsonschema.  Facts across
    # fields are checked where each section is read (_read).
    error = first_error(_load_schema(), config)
    if error is not None:
        raise _refusal(*error)
    return config


def _refusal(path: str, message) -> ConfigError:
    return ConfigError(f"config schema violation at {path}: {message}")


def _read(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), reading the config section at JSON path `path`;
    its ValueError (or OverflowError, from an integer too large for int64)
    refuses the config at that path.  Every run reads its sections this way
    before its first engine call and before any file."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise _refusal(path, exc) from exc


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode("utf-8")).hexdigest()


def _parse_window(doc: dict, rule: LocalRule) -> CellSet:
    """The window of `doc`, refused unless its dimension is the rule's."""
    if "hypercube" in doc:
        window = hypercube(int(doc["hypercube"]), int(doc.get("dim", rule.dim)))
    else:  # CellSet refuses cells of mixed dimensions, or of another dimension than a dim given
        window = CellSet(doc["cells"], doc.get("dim"))
    if window.dim != rule.dim:
        raise ValueError(f"a {window.dim}D window on a {rule.dim}D rule")
    return window


def _noise_on(alphabet: Alphabet, doc: dict) -> NoiseModel:
    """noise_from_json(doc), refused unless it acts on `alphabet`."""
    noise = noise_from_json(doc)
    if noise.alphabet.factors != alphabet.factors:
        raise ValueError(f"noise alphabet {list(noise.alphabet.factors)} is not {list(alphabet.factors)}")
    return noise


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
        self.meta = {
            "rcalab-version": __version__,
            "config-sha256": config_hash(config),
            "seed": seed,
            "generated-at": datetime.now(timezone.utc).isoformat(),
        }
        self.fmt = fmt

    def _write(self, name: str, text: str) -> Path:
        # made here, not in __init__, so that a refused run leaves no directory
        self.out_dir.mkdir(parents=True, exist_ok=True)
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
    rule = _read("$.params.rule", rule_from_json, params["rule"])
    verdict = analysis.analyze_rule(rule)
    doc = {"rule": params["rule"], **verdict}
    writer.json_doc("analyze-rule", doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cone_problem(inst: dict, path: str) -> ConeProblem:
    """The ConeProblem of the exact-law instance (rule, noise, window,
    horizon, initial) at JSON path `path`, with the initial on the horizon's
    cone moore(A, rT); its one solve gives the window law at every
    t = 0..horizon.  The problem checks its bytes as it is made."""
    rule = _read(f"{path}.rule", rule_from_json, inst["rule"])
    noise = _read(f"{path}.noise", _noise_on, rule.alphabet, inst["noise"])
    window = _read(f"{path}.window", _parse_window, inst["window"], rule)
    if rule.dim == 1 and "surjective" in inst:
        raise _refusal(f"{path}.surjective", "a 1D rule's surjectivity is decided on its pair graph, not declared")
    horizon = int(inst["horizon"])
    cone = dependence_cone(window, rule, horizon)
    kind = inst.get("initial", "all-zeros")  # or {"pattern": [...]}, the schema's one other form
    symbols = kind["pattern"] if isinstance(kind, dict) else np.full(len(cone), int(kind == "all-ones"))
    # rule, noise and window are read, so the initial is all the problem can refuse
    return _read(f"{path}.initial", ConeProblem, rule, noise, window, horizon, symbols)


def _surjective(inst: dict, rule: LocalRule) -> bool:
    """The surjectivity verdict of an exact-law instance's rule, made once
    before its first solve: decided on the pair graph for a 1D rule, and for
    d >= 2 the instance's `surjective` key, false when not given."""
    if rule.dim == 1:
        return analysis.test_surjective(rule)
    return inst.get("surjective", False)


def run_evolve_exact(params: dict, seed: int, writer: OutputWriter) -> int:
    problem = _cone_problem(params, "$.params")
    surjective = _surjective(params, problem.rule)
    label, rows = _window_label(problem.window), []
    ln2 = math.log(2.0)
    for t, marginal in enumerate(exact_window_marginal(problem)):
        h = entropy(marginal)
        xi = deficiency(marginal)
        tv = tv_to_uniform(marginal)
        bound = check_evolution_bound(problem, t, marginal, surjective)
        rows.append([t, label, h, h / ln2, xi, tv, bound.rhs, bound.ok])
    writer.table(
        "evolve-exact",
        ["t", "window", "H_nats", "H_bits", "deficiency", "tv_to_uniform", "bound_rhs", "ok"],
        rows,
    )
    return 0


def run_simulate(params: dict, seed: int, writer: OutputWriter, threads: int) -> int:
    rule = _read("$.params.rule", rule_from_json, params["rule"])
    noise = _read("$.params.noise", _noise_on, rule.alphabet, params["noise"])
    window = _read("$.params.window", _parse_window, params["window"], rule)
    estimator = params.get("estimator", "miller-madow")
    plan = _read(
        "$.params", SimulationPlan, rule, noise, params["sides"], params.get("generator", "all-zeros"),
        int(params["horizon"]), int(params["replicates"]), seed, window, allow_wrap=params.get("allow_wrap", False),
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
    rule = _read("$.params.rule", rule_from_json, params["rule"])
    noise = _read("$.params.noise", _noise_on, rule.alphabet, params["noise"])
    if params.get("dim", rule.dim) != rule.dim:
        raise _refusal("$.params.dim", f"{params['dim']} is not the rule's dimension {rule.dim}")
    estimates = mixing_scan(
        rule,
        noise,
        params["windows"],
        float(params["epsilon"]),
        int(params["horizon"]),
        int(params["replicates"]),
        seed,
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
    # every exact-law instance given is read before any suite runs
    keys = [key for key in ("evolution_instance", "decay_instance") if key in params]
    problems = {key: _cone_problem(params[key], f"$.params.{key}") for key in keys}
    evolution, pinsker, step = ("evolution" in checks, "pinsker" in checks, "surjective-step" in checks)
    # the two checks claimed for surjective rules only share one verdict,
    # and a rule not surjective is refused before any suite runs
    if (evolution or step) and not _surjective(params["evolution_instance"], problems["evolution_instance"].rule):
        name = "evolution" if evolution else "surjective-step"
        raise ValueError(f"the {name} check applies to surjective rules only")
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
    if evolution or pinsker:
        # one exact curve, shared by the rows of both checks
        problem = problems["evolution_instance"]
        label = _window_label(problem.window)
        for t, marginal in enumerate(exact_window_marginal(problem)):
            rows = []
            if evolution:
                rows.append(check_evolution_bound(problem, t, marginal, surjective=True))
            if pinsker:
                rows.append(check_pinsker(marginal))
            for report in rows:
                report.params = {"t": t, "window": label}
                reports.append(report)
    if "decay-envelope" in checks:
        reports += _decay_envelope_reports(params["decay_instance"], problems["decay_instance"])
    if step:
        # drawn last from rng, so that the rows of every other check stay as they were
        n_laws = int(params.get("instances", 100))
        reports += _surjective_step_reports(problems["evolution_instance"], n_laws, rng)
    writer.json_lines("verify-bounds", (r.to_dict() for r in reports))
    failed = [r for r in reports if not r.ok]
    print(f"verify-bounds: {len(reports) - len(failed)}/{len(reports)} ok")
    return EXIT_BOUND if failed else 0


def _surjective_step_reports(problem: ConeProblem, n_laws: int, rng: np.random.Generator) -> list[BoundReport]:
    """The one-step lemma H((FX)_J) >= H(X_J) - c(J) of a surjective rule on
    n_laws Dirichlet laws on moore(J, 2r), with the instance's rule and its
    window J; the caller has refused a rule not surjective."""
    rule, J = problem.rule, problem.window
    cone = moore(J, 2 * rule.radius)
    n_states = rule.alphabet.size ** len(cone)
    check_bytes(16 * n_states, f"a Dirichlet law on a {len(cone)}-cell cone and its alpha vector")
    label, reports = _window_label(J), []
    for i in range(n_laws):
        law = WindowDistribution(cone, rule.alphabet, rng.dirichlet(np.ones(n_states)))
        report = check_surjective_step_bound(rule, J, law)
        report.params = {"window": label, "law": i}
        reports.append(report)
    return reports


def _decay_envelope_reports(inst: dict, problem: ConeProblem) -> list[BoundReport]:
    """User-supplied (alpha, beta) envelope against the exact TV curve: checks
    TV(t) <= alpha e^(-beta t) n^((d-1)/2) wherever t >= a log n + b."""
    alpha, beta = float(inst["alpha"]), float(inst["beta"])
    gate_a, gate_b = float(inst.get("a", 0.0)), float(inst.get("b", 0.0))
    n, reports = diameter(problem.window), []
    for t, marginal in enumerate(exact_window_marginal(problem)):
        if not theorem_applicable(t, n, gate_a, gate_b):
            continue
        tv = tv_to_uniform(marginal)
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
    network = _read("$.params.network", network_from_json, params["network"])
    noise = _read("$.params.noise", _noise_on, network.alphabet, params["noise"])
    horizon = int(params["horizon"])
    if network.schedule == "fixed" and horizon > len(network.layers):
        raise _refusal("$.params.horizon", f"{horizon} steps run past a fixed schedule of {len(network.layers)} layers")
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
