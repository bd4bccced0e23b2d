"""Benchmark for mttokit: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh
worker processes (perfbench/worker.py) with BLAS pinned to one thread:
first SETUP_PROBES - 1 processes that only set up, then one that sets up
and times its requests.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics from a traced worker with --trace 1.
Full records and trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3  # set-up time is the median over this many fresh processes
TIMEOUT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def worker(args, out_dir, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker for {args.workload} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mttokit", "__init__.py")):
        print(f"no mttokit source under {ROOT}/src: run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.trace:
        record = worker(args, out_dir, deadline)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in record["layers"].items()}
    else:
        setups = [worker(args, out_dir, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES - 1)]
        record = worker(args, out_dir, deadline)
        setups.append(record["setup_s"])
        record["setup_probes_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": record["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": record["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": record["latency_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    record["metrics"] = metrics
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in record["failures"]:
        print(f"failed request {failure['request']} ({failure['shape']}): {failure['error']}", file=sys.stderr)
    print(f"{args.workload}: {record['requests']} requests, tail = p{record['tail_percentile']:.1f}, "
          f"per-shape p50 ms {json.dumps({k: round(v, 3) for k, v in record['shape_p50_ms'].items()})}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
