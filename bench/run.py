"""Run one workload of qwsed's benchmark and print its metrics.

    python3 bench/run.py --workload families-all --seed 1 --seconds 30 --trace 0

Run from anywhere; qwsed is imported from src/ next to this directory.
Each run starts fresh worker processes (bench/worker.py) with BLAS and
OpenMP pinned to one thread.  With --trace 0, two set-up-only workers and
one measuring worker give the end-to-end metrics; set-up time is taken from
outside each worker, from its start to the end of its warm-up, scaled to
the reference host speed (README), and the median of the three is
reported.  With --trace 1 one worker alternates plain and traced rounds
and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Host-noise diagnostics (steal time,
context switches, round times) go to stderr and, with the metrics, to
bench/out/runs.jsonl.  Exits non-zero without a result if a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import HOST_REFERENCE_MS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("gnp-open", "lollipop-all", "families-all")
SETUP_RUNS = 3
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    # family-scan keeps its default pool size, one thread per CPU
    env.pop("QWSED_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run one worker to its end; its result gains setup_s, timed from here."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", OUT, *extra]
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qwsed", "__init__.py")):
        print(f"error: no qwsed sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(args, ["--setup-only"], 60.0))
        result = spawn(args, [], deadline - time.monotonic())
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result)
    metrics = result["metrics"]
    if not args.trace:
        # each set-up scaled to the reference host speed, like the other times
        scaled = [r["setup_s"] * HOST_REFERENCE_MS / r["host_ms"] for r in setups]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    diagnostics = dict(result["diagnostics"], setup_runs_s=[r["setup_s"] for r in setups],
                       setup_host_reference_ms=[r["host_ms"] for r in setups])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "time": time.time(), "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": {k: v["value"] for k, v in metrics.items()},
              "diagnostics": diagnostics}
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"diagnostics": diagnostics}), file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
