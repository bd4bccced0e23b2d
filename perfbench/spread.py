"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
Raw results are appended to perfbench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    log = os.path.join(HERE, "out", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)

    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in specs}
        failed = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(res.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace, **result}) + "\n")
            failed.append((result["failed"], result["attempted"], result["correct"]))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: failed/attempted/correct per run {sorted(set(failed))}")
        for m in specs:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            print(f"  {m['name']:42s} median {med:12.4f} {m['unit']:9s} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"iqr/median {share:7.4f}" + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
