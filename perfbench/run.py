"""rcalab benchmark.

    python3 perfbench/run.py --workload mc-scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --pin                   # rewrite references.json

Run from the root of an rcalab checkout; the package is imported from its
src/ directory.  Each repetition of a workload runs in a fresh interpreter
(perfbench/worker.py); a run repeats the workload until --seconds have
passed, at least MIN_REPS times, and reports medians.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
(one untraced and two traced repetitions) with --trace 1.

A step fails when its exit code is not 0, when an `ok` field in its output
is false, or when an output is off its reference; `failed` and `attempted`
count steps.  `correct` is false when any output is off its reference, when
an invariant does not hold, or when a traced count does not repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent

ROOT = Path.cwd().resolve()
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"

MIN_REPS = 3
SETUP_PER_REP = 2
# A run must end within 180 s; no repetition starts that could end past this.
TIME_LIMIT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.spawned = 0
        pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def worker(self, *args: str) -> dict:
        """Run one worker to completion; adds its set-up time as setup_s."""
        self.spawned += 1
        timeout = max(TIME_LIMIT_S - (time.monotonic() - self.started), 1.0)
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["imported_at"] - spawned_at
        return result

    def rep(self, *extra: str) -> dict:
        work_dir = WORK / f"rep-{os.getpid()}-{self.spawned}"
        return self.worker("--workload", self.workload, "--seed", str(self.seed),
                           "--work-dir", str(work_dir), *extra)

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def steps_summary(reps: list[dict]) -> tuple[bool, int, int, list[str]]:
    problems = []
    correct, attempted, failed = True, 0, 0
    for rep in reps:
        for step in rep["steps"]:
            attempted += 1
            failed += step["exit"] != 0 or step["not_ok"] > 0 or bool(step["mismatches"])
            correct = correct and not step["mismatches"]
            problems += [f"{step['kind']}: {m}" for m in step["mismatches"]]
            if step["exit"] != 0 or step["not_ok"]:
                problems.append(f"{step['kind']}: exit {step['exit']}, {step['not_ok']} ok fields false")
    return correct, attempted, failed, sorted(set(problems))


def metadata(runner: Runner) -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rcalab").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    # The first worker of a run also compiles bytecode; its set-up time is not a sample.
    info = runner.worker("--setup-only")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "blas": info["blas"],
        "blas_threads": info["blas_threads"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, dict]:
    """Repeat the workload, each repetition followed by SETUP_PER_REP set-up
    samples, while the next round is expected to end within `seconds`."""
    reps, setups, rounds = [], [], []
    while True:
        start = runner.elapsed()
        reps.append(runner.rep())
        setups.append(reps[-1]["setup_s"])
        setups += [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_PER_REP)]
        rounds.append(runner.elapsed() - start)
        expected_end = runner.elapsed() + statistics.median(rounds)
        if expected_end > TIME_LIMIT_S or (len(reps) >= MIN_REPS and expected_end > seconds):
            break
    correct, attempted, failed, problems = steps_summary(reps)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    detail = {
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "wall_s_each": [round(r["wall_s"], 4) for r in reps],
        "fail_frac": failed / attempted,
        "problems": problems,
    }
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }
    return result, detail


def per_layer(runner: Runner) -> tuple[dict, dict]:
    untraced = runner.rep()
    traced = [
        runner.rep("--trace", str(WORK / f"spans-{runner.workload}-seed{runner.seed}-{k}.json"))
        for k in (1, 2)
    ]
    correct, attempted, failed, problems = steps_summary([untraced] + traced)
    values = {}
    for name in tracer.LAYER_METRICS:
        first, second = (t["layers"][name] for t in traced)
        if tracer.is_count(name):
            if first != second:
                correct = False
                problems.append(f"count {name} differs between traced runs: {first} != {second}")
            values[name] = first
        else:
            values[name] = (first + second) / 2
    metrics = {
        name: {"value": v, "unit": "count" if tracer.is_count(name) else "s"}
        for name, v in values.items()
    }
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced["wall_s"], "unit": "s"}
    detail = {"untraced_wall_s": untraced["wall_s"], "traced_wall_s": traced_wall,
              "fail_frac": failed / attempted, "problems": problems}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, detail


def print_table(workload: str, result: dict, detail: dict) -> None:
    print(f"{workload}: correct={result['correct']} failed {result['failed']}/{result['attempted']} steps")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6f} {m['unit']}")
    print(f"  {'fail_frac':28s} {detail.pop('fail_frac'):14.6f} 1")
    for problem in detail.pop("problems"):
        print(f"  ! {problem}")
    print(f"  {json.dumps(detail)}")


def pin() -> None:
    """Rewrite references.json from single-threaded runs at the default seed."""
    references = {}
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, workloads.DEFAULT_SEED)
        rep = runner.rep("--pin")
        references[workload] = rep["outputs"]
        print(f"{workload}: pinned {len(rep['outputs'])} steps", file=sys.stderr)
    REFERENCES.write_text(json.dumps(references, separators=(",", ":")) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the pinned references")
    args = parser.parse_args()

    if not (ROOT / "src" / "rcalab" / "cli.py").is_file():
        print(f"error: {ROOT} is not an rcalab checkout (no src/rcalab/cli.py)", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.pin:
        pin()
        return 0

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        runner = Runner(workload, args.seed)
        print(json.dumps({"meta": {"workload": workload, "seed": args.seed,
                                   "seconds": args.seconds, "trace": args.trace,
                                   **metadata(runner)}}))
        result, detail = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
        print_table(workload, result, detail)
        results[workload] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
