"""Out-of-tree tracing for the benchmark's per-layer metrics.

`install(tracer)` replaces public functions of the rcalab modules, at the
module (or class) attribute their callers look up, by wrappers that record a
span (id, name, start, end, parent id, thread) and bump counters.  Nothing
under src/ changes; tracing is on only in a process that calls `install`.

Two private montecarlo functions are wrapped as well: `_block_counts` is the
unit a worker thread runs, so its span is the one whose children (rule
lookup, noise draw, group add) run in the same thread, and `_step_block`
counts block-steps.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1, thread)
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += int(n)

    def peak(self, name, n):
        with self._lock:
            self.peaks[name] = max(self.peaks.get(name, 0), int(n))

    def wrap(self, name, fn, on_call=None):
        """Traced stand-in for fn; on_call(args, result) runs after each call."""

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "thread"],
                       "spans": sorted(self.spans)}, fh)

    def busy_seconds(self) -> dict[str, float]:
        """Per span name: summed duration, skipping spans nested in a span of
        the same name, so recursion is not counted twice."""
        by_id = {s[0]: s for s in self.spans}
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, parent, _ in self.spans:
            p = parent
            while p != -1 and by_id[p][1] != name:
                p = by_id[p][4]
            if p == -1:
                out[name] += end - start
        return out

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus that of its direct children."""
        out: dict[str, float] = defaultdict(float)
        names = {s[0]: s[1] for s in self.spans}
        for _, name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent != -1:
                out[names[parent]] -= end - start
        return out


class _TracedGenerator:
    """Proxy for the numpy Generator a CounterRng block returns: draws are
    timed as rng.draw spans and their values counted."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def _draw(self, fn, args, kwargs):
        out = self._tracer.call("rng.draw", fn, args, kwargs)
        self._tracer.count("rng.uniforms", np.size(out))
        return out

    def random(self, *args, **kwargs):
        return self._draw(self._gen.random, args, kwargs)

    def integers(self, *args, **kwargs):
        return self._draw(self._gen.integers, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


CLI_KINDS = {
    "analyze-rule": "run_analyze_rule",
    "evolve-exact": "run_evolve_exact",
    "simulate": "run_simulate",
    "mixing-scan": "run_mixing_scan",
    "verify-bounds": "run_verify_bounds",
    "circuit-mix": "run_circuit_mix",
}


def _de_bruijn_states(rule) -> int:
    offs = [a[0] for a in rule.neighborhood]
    return rule.alphabet.size ** (max(max(offs) - min(offs) + 1, 2) - 1)


def install(tracer: Tracer) -> None:
    from rcalab import analysis, bounds, circuits, cli, exact, montecarlo, rng
    from rcalab.lattice import Alphabet

    def patch(owner, attr, name, on_call=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_call))

    block = rng.CounterRng.block
    rng.CounterRng.block = lambda self, *a, **k: _TracedGenerator(block(self, *a, **k), tracer)

    patch(montecarlo, "sample_noise_symbols", "noise.sample")
    patch(montecarlo, "apply_table", "rules.apply_table",
          lambda args, out: tracer.count("rules.cells_updated", out.size))
    patch(Alphabet, "add", "lattice.group_add",
          lambda args, out: tracer.count("lattice.group_add.calls"))

    patch(montecarlo, "_block_counts", "montecarlo.counts")
    step_block = montecarlo._step_block

    def counted_step(*args, **kwargs):
        tracer.count("montecarlo.block_steps")
        return step_block(*args, **kwargs)

    montecarlo._step_block = counted_step
    patch(montecarlo, "marginalize_counts", "montecarlo.marginalize")
    patch(montecarlo, "estimate_mixing_time", "montecarlo.estimate")

    def on_marginal(args, out):
        tracer.count("exact.marginal.calls")

    def on_push(args, out):
        tracer.count("exact.states_pushed", args[0].probs.size)
        tracer.peak("exact.peak_states", args[0].probs.size)

    for owner in (cli, exact):
        patch(owner, "exact_window_marginal", "exact.marginal", on_marginal)
    patch(exact, "push_deterministic", "exact.push", on_push)
    patch(exact, "convolve_noise", "exact.convolve",
          lambda args, out: tracer.count("exact.states_convolved", args[0].probs.size))

    for owner, attrs in (
        (cli, ("entropy", "deficiency", "tv_to_uniform", "pinsker_bound", "estimate_entropy")),
        (exact, ("entropy",)),
        (bounds, ("entropy_vec", "deficiency")),
    ):
        for attr in attrs:
            patch(owner, attr, "entropy")

    patch(cli, "worst_case_curve", "circuits.worst_case")
    patch(circuits.ReversibleNetwork, "layer_permutation", "circuits.layer_perm")
    patch(circuits, "entropy_vec", "circuits.entropy_sweep",
          lambda args, out: tracer.count("circuits.entropy_calls"))

    patch(analysis, "build_de_bruijn", "analysis.debruijn")
    patch(analysis, "test_surjective", "analysis.surjective")
    patch(analysis, "test_injective", "analysis.injective",
          lambda args, out: tracer.count("analysis.pair_states", _de_bruijn_states(args[0]) ** 2))

    patch(cli, "noise_lemma_suite", "bounds.noise_lemma")
    patch(cli, "bootstrap_layout", "bounds.bootstrap")
    patch(cli, "check_block_superadditivity", "bounds.superadditivity")

    for kind, attr in CLI_KINDS.items():
        patch(cli, attr, f"cli.{kind}")
    patch(cli, "load_config", "cli.load_config")
    for attr in ("table", "json_doc", "json_lines"):
        patch(cli.OutputWriter, attr, "cli.write",
              lambda args, path: tracer.count("cli.bytes_written", os.path.getsize(path)))


# Per-layer metrics: name -> (source, key).  "busy" and "self" read span
# seconds, "count" and "peak" read counters.
LAYER_METRICS = {
    "rng.draw.s": ("busy", "rng.draw"),
    "rng.uniforms": ("count", "rng.uniforms"),
    "noise.sample.s": ("self", "noise.sample"),
    "rules.apply_table.s": ("busy", "rules.apply_table"),
    "rules.cells_updated": ("count", "rules.cells_updated"),
    "lattice.group_add.s": ("busy", "lattice.group_add"),
    "lattice.group_add.calls": ("count", "lattice.group_add.calls"),
    "montecarlo.counts.self_s": ("self", "montecarlo.counts"),
    "montecarlo.block_steps": ("count", "montecarlo.block_steps"),
    "montecarlo.marginalize.s": ("busy", "montecarlo.marginalize"),
    "montecarlo.estimate.s": ("busy", "montecarlo.estimate"),
    "exact.marginal.calls": ("count", "exact.marginal.calls"),
    "exact.marginal.self_s": ("self", "exact.marginal"),
    "exact.push.s": ("busy", "exact.push"),
    "exact.states_pushed": ("count", "exact.states_pushed"),
    "exact.peak_states": ("peak", "exact.peak_states"),
    "exact.convolve.s": ("busy", "exact.convolve"),
    "exact.states_convolved": ("count", "exact.states_convolved"),
    "entropy.s": ("busy", "entropy"),
    "circuits.worst_case.self_s": ("self", "circuits.worst_case"),
    "circuits.layer_perm.s": ("busy", "circuits.layer_perm"),
    "circuits.entropy_sweep.s": ("busy", "circuits.entropy_sweep"),
    "circuits.entropy_calls": ("count", "circuits.entropy_calls"),
    "analysis.debruijn.s": ("busy", "analysis.debruijn"),
    "analysis.surjective.s": ("busy", "analysis.surjective"),
    "analysis.injective.s": ("busy", "analysis.injective"),
    "analysis.pair_states": ("count", "analysis.pair_states"),
    "bounds.noise_lemma.s": ("busy", "bounds.noise_lemma"),
    "bounds.bootstrap.s": ("busy", "bounds.bootstrap"),
    "bounds.superadditivity.s": ("busy", "bounds.superadditivity"),
    **{f"cli.{kind}.s": ("busy", f"cli.{kind}") for kind in CLI_KINDS},
    "cli.load_config.s": ("busy", "cli.load_config"),
    "cli.write.s": ("busy", "cli.write"),
    "cli.bytes_written": ("count", "cli.bytes_written"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    sources = {
        "busy": tracer.busy_seconds(),
        "self": tracer.self_seconds(),
        "count": tracer.counts,
        "peak": tracer.peaks,
    }
    return {name: sources[src].get(key, 0) for name, (src, key) in LAYER_METRICS.items()}


def is_count(metric: str) -> bool:
    return LAYER_METRICS[metric][0] in ("count", "peak")
