"""The benchmark tracer (perfbench/tracer.py) times layers by patching
module attributes of rcalab.  A rename that takes a patched name out of use
turns its metric into a silent 0; this runs a small traced mixing-scan and
checks that the layers it exercises are still seen."""

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
rc = cli.main(["mixing-scan", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"rc": rc, "metrics": tracer.layer_metrics(t)}))
"""


def test_tracer_sees_mixing_scan_layers(tmp_path):
    config = {
        "kind": "mixing-scan",
        "seed": 3,
        "params": {
            "rule": {"elementary": 90},
            "noise": {"kind": "additive", "alphabet": [2], "q": ["0.9", "0.1"]},
            "windows": [1, 2],
            "epsilon": 0.1,
            "horizon": 2,
            "replicates": 64,
            "n_random": 1,
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    metrics = result["metrics"]
    # 4 plans (3 fixed starts + 1 random) x 1 block x 2 steps
    assert metrics["montecarlo.block_steps"] == 8
    for name in ("montecarlo.marginalize.s", "montecarlo.estimate.s", "cli.write.s",
                 "cli.bytes_written", "rng.draw.s"):
        assert metrics[name] > 0, name
