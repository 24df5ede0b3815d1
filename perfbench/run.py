"""Offline benchmark for qnnkit's trainer and its state-vector oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md for why each one):
train-mnist4-vup, verify-mixed22, verify-mnist2-vu. All inputs are
synthetic MNIST-shaped data made from --seed.

Each workload runs in its own process with one thread for numpy's BLAS.
With --trace 0 the benchmark first sets up in SETUP_SAMPLES - 1 extra
processes, to take the median set-up time, then runs the workload for
--seconds and reports the end-to-end metrics. With --trace 1 it reports
the per-layer metrics of a traced run instead. Either way it prints a
human-readable report, then, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. It exits 1 without that
line when the workload cannot run, for instance outside a full checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"  # workload names and every metric's name and unit
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s

# One process on the two cores, with no extra BLAS or OpenMP threads;
# a fixed hash seed keeps set and dict iteration order the same run to run.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


def call_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON on its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"no time left for worker {args}")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env={**os.environ, **WORKER_ENV},
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited with code {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probes.append(call_worker(common + ["--setup-only"], deadline)["setup_s"])
        result = call_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups = probes + [result["setup_s"]]
        metrics["setup_s"] = statistics.median(setups)
        result["report"].append(f"setup_s is the median of {len(setups)} set-ups")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: worker metrics {sorted(metrics)} do not match {SPEC.name}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in result["report"]:
        print("  " + line)
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_ops_frac {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
