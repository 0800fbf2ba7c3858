"""One repetition of a workload in a fresh interpreter.

Prints one JSON line: the monotonic time at which `import rcalab.cli`
returned (the parent subtracts its spawn time to get set-up time), and
either the numpy and BLAS versions (--setup-only) or the workload's wall
time, peak RSS and per-step checks.
Run by perfbench/run.py with PYTHONPATH pointing at the checkout's src/.
"""

import time

import rcalab.cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def run_steps(steps, work_dir: Path, single_thread: bool):
    """Run the steps back to back; returns (wall seconds, exit codes)."""
    argvs = []
    for i, step in enumerate(steps):
        step_dir = work_dir / f"step{i}"
        step_dir.mkdir(parents=True)
        config = work_dir / f"step{i}.json"
        config.write_text(json.dumps(step.config), encoding="utf-8")
        threads = 1 if single_thread else step.threads
        argvs.append([step.kind, "--config", str(config), "--out", str(step_dir),
                      "--threads", str(threads)])
    codes = []
    start = time.perf_counter()
    for argv in argvs:
        try:
            codes.append(rcalab.cli.main(argv))
        except Exception as exc:  # a crashing step is a failed step, not a harness error
            print(f"step {argv[0]} raised {exc!r}", file=sys.stderr)
            codes.append(f"exception: {type(exc).__name__}")
    return time.perf_counter() - start, codes


def numpy_info() -> dict:
    """numpy version, BLAS library and the thread count it runs with."""
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get_threads = getattr(dll, symbol, None)
            if get_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                threads = get_threads()
                break
    return {"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--setup-only", action="store_true",
                        help="only report set-up time, numpy and BLAS versions")
    parser.add_argument("--trace", type=Path, help="trace the run and write its spans here")
    parser.add_argument("--pin", action="store_true",
                        help="run every step with --threads 1 and print its outputs")
    args = parser.parse_args()

    src = Path.cwd().resolve() / "src"
    if Path(rcalab.cli.__file__).resolve().parent.parent != src:
        print(f"rcalab imported from {rcalab.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"imported_at": IMPORTED_AT}
    if args.setup_only:
        print(json.dumps({**result, **numpy_info()}))
        return 0

    steps = workloads.steps(args.workload, args.seed)
    traced = None
    if args.trace is not None:
        traced = tracer.Tracer()
        tracer.install(traced)
    try:
        wall, codes = run_steps(steps, args.work_dir, args.pin)
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs = [checks.read_outputs(args.work_dir / f"step{i}") for i in range(len(steps))]
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    if args.pin:
        result["outputs"] = outputs
    else:
        refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))[args.workload]
        full = args.seed == workloads.DEFAULT_SEED
        result["steps"] = [
            {
                "kind": step.kind,
                "exit": code,
                "not_ok": out["ok"].count(False),
                "mismatches": checks.mismatches(step.kind, out, ref, full),
            }
            for step, code, out, ref in zip(steps, codes, outputs, refs, strict=True)
        ]
    if traced is not None:
        result["layers"] = tracer.layer_metrics(traced)
        traced.write_spans(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
