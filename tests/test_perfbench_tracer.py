"""The benchmark tracer (perfbench/tracer.py) times layers by patching
module attributes of rcalab.  A rename that takes a patched name out of use
turns its metric into a silent 0; these run small traced CLI runs and check
that the layers they exercise are still seen."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import tracer
from rcalab import cli

t = tracer.Tracer()
tracer.install(t)
rc = cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"rc": rc, "metrics": tracer.layer_metrics(t)}))
"""

NOISE = {"kind": "additive", "alphabet": [2], "q": ["0.9", "0.1"]}


def _traced_metrics(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, config["kind"], str(cfg), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    return result["metrics"]


def test_tracer_sees_mixing_scan_layers(tmp_path):
    metrics = _traced_metrics(tmp_path, {
        "kind": "mixing-scan",
        "seed": 3,
        "params": {
            "rule": {"elementary": 90},
            "noise": NOISE,
            "windows": [1, 2],
            "epsilon": 0.1,
            "horizon": 2,
            "replicates": 64,
            "n_random": 1,
        },
    })
    # 4 plans (3 fixed starts + 1 random) x 1 block x 2 steps
    assert metrics["montecarlo.block_steps"] == 8
    for name in ("montecarlo.marginalize.s", "montecarlo.estimate.s", "cli.write.s",
                 "cli.bytes_written", "rng.draw.s"):
        assert metrics[name] > 0, name


def test_tracer_sees_circuit_mix_layers(tmp_path):
    metrics = _traced_metrics(tmp_path, {
        "kind": "circuit-mix",
        "params": {
            "network": {
                "sites": 3,
                "alphabet": [2],
                "layers": [[{"gate": "cadd", "sites": [0, 1]}], [{"gate": "cadd", "sites": [1, 2]}]],
            },
            "noise": NOISE,
            "horizon": 4,
        },
    })
    for name in ("circuits.worst_case.self_s", "circuits.layer_perm.s"):
        assert metrics[name] > 0, name


def test_tracer_sees_analyze_rule_layers(tmp_path):
    metrics = _traced_metrics(tmp_path, {"kind": "analyze-rule", "params": {"rule": {"elementary": 90}}})
    # rule 90's automaton has 4 states, so its pair graph has 16 nodes
    assert metrics["analysis.pair_states"] == 16
    for name in ("analysis.debruijn.s", "analysis.surjective.s", "analysis.injective.s"):
        assert metrics[name] > 0, name
