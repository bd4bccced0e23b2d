"""One workload process: set-up, warm-up, the timed requests, then checks.

Started by run.py with the BLAS thread pin already in its environment.
Prints one JSON line on stdout.  With --setup-only it stops when set-up
ends and reports only its set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time

import calibrate
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_CALIBRATIONS = 20
CALIBRATION_EVERY_S = 0.05


def tail_rank(count):
    """0-based rank of the highest order statistic with ten samples above it."""
    return count - 11


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before the process started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import mttokit
    import mttokit.cli  # noqa: F401  (the spaces workload and the tracer use it)

    if os.path.commonpath([os.path.abspath(mttokit.__file__), SRC]) != SRC:
        print(f"mttokit was imported from {mttokit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer().install() if args.trace else None
    with tempfile.TemporaryDirectory(dir=args.out_dir) as workdir:
        return run(workloads.WORKLOADS[args.workload](mttokit, args.seed, workdir), args, tracer)


def run(wl, args, tracer) -> int:
    wl.setup()
    cycles = wl.cycles(args.seconds)
    requests = wl.make_requests(cycles)
    warm_up_errors = wl.warm_up()
    gc.collect()
    setup_raw_s = time.monotonic() - args.spawned_at
    setup_s = setup_raw_s * calibrate.speed_scale([calibrate.kernel() for _ in range(SETUP_CALIBRATIONS)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    if tracer:
        tracer.reset()
    latencies, outputs, per_request, passes = [], [], [], []
    clock = time.perf_counter
    t_start = clock()
    for k, req in enumerate(requests):
        if tracer:
            tracer.request = k
            before = tracer.snapshot()
        t0 = clock()
        try:
            out = wl.run(req)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        t1 = clock()
        latencies.append(t1 - t0)
        outputs.append(out)
        if tracer:
            per_request.append(_delta(before, tracer.snapshot()))
        # one kernel pass per CALIBRATION_EVERY_S of request time, at least one
        passes.append([calibrate.kernel() for _ in range(1 + int((t1 - t0) / CALIBRATION_EVERY_S))])
    wall = clock() - t_start
    scales = calibrate.local_scales(passes)
    scaled = [x * s for x, s in zip(latencies, scales)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, wrong = [], 0
    for k, (req, out) in enumerate(zip(requests, outputs)):
        if isinstance(out, Exception):
            failures.append({"request": k, "shape": req["shape"], "error": f"{type(out).__name__}: {out}"})
            continue
        problem = wl.check(req, out)
        if problem:
            wrong += 1
            failures.append({"request": k, "shape": req["shape"], "error": problem})

    count = len(requests)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "requests": count, "cycles": cycles,
        "correct": wrong == 0, "attempted": count, "failed": len(failures), "failures": failures[:20],
        "warm_up_errors": warm_up_errors,
        "timed_s": wall, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "speed_scale_median": statistics.median(scales), "calibration_passes": sum(map(len, passes)),
        "tail_percentile": 100.0 * (tail_rank(count) + 1) / count,
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": sorted(scaled)[tail_rank(count)] * 1e3,
        "ops_per_s": count / sum(scaled),
        "raw": {"latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": sorted(latencies)[tail_rank(count)] * 1e3, "ops_per_s": count / sum(latencies)},
        "shape_p50_ms": {s: statistics.median(x for x, r in zip(scaled, requests) if r["shape"] == s) * 1e3
                         for s in dict.fromkeys(r["shape"] for r in requests)},
        "latencies_ms": [x * 1e3 for x in scaled],
        "speed_scales": scales,
    }
    if tracer:
        record["layers"] = layer_metrics(tracer, per_request, scales, count)
        path = os.path.join(args.out_dir, f"trace-{wl.name}-seed{args.seed}.jsonl")
        tracer.write_spans(path, t_start)
        with open(path, "a", encoding="utf-8") as fh:
            for k, (calls, self_s) in enumerate(per_request):
                fh.write(json.dumps({"request": k, "shape": requests[k]["shape"], "latency_ms": scaled[k] * 1e3,
                                     "calls": calls, "self_ms": {n: v * scales[k] * 1e3 for n, v in self_s.items()}}) + "\n")
    print(json.dumps(record))
    return 0


def _delta(before, after):
    calls0, self0 = before
    calls1, self1 = after
    return ({n: c - calls0.get(n, 0) for n, c in calls1.items() if c != calls0.get(n, 0)},
            {n: s - self0.get(n, 0.0) for n, s in self1.items() if s != self0.get(n, 0.0)})


CALL_LAYERS = ("model_operator.s_theta", "model_operator.defect_spaces", "model_operator.j_operators",
               "mtto.build", "laurent.multiply", "numerics.rank", "model_space.coords", "model_space.kernel")
TIME_LAYERS = ("model_operator.s_theta", "model_operator.defect_spaces", "model_operator.j_operators",
               "mtto.build", "laurent.multiply", "model_space.det_degree", "model_space.InnerFunction",
               "mtto.mtto_dimension", "numerics.rank", "mtto.is_mtto", "mtto.recover_symbol",
               "mtto.zero_symbol_decompose", "numerics.solve_min_norm", "model_space.ModelSpaceBasis",
               "numerics.nullspace", "serialize", "cli.main", "suite.run_suite")


def layer_metrics(tracer, per_request, scales, count):
    """Per-request averages over the timed requests, by layer; each
    request's self times at the reference speed around it."""
    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (tracer.calls[layer] / count, "count/req")
    out["laurent.objects"] = (tracer.calls["laurent.objects"] / count, "count/req")
    for layer in TIME_LAYERS:
        total = sum(self_s.get(layer, 0.0) * s for (_, self_s), s in zip(per_request, scales))
        out[f"{layer}.self_ms"] = (total * 1e3 / count, "ms/req")
    bases = tracer.distinct_bases
    out["model_operator.s_theta.calls_per_basis"] = (
        tracer.calls["model_operator.s_theta"] / bases if bases else 0.0, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
