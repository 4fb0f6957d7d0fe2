"""One benchmark process: set up a workload, run its closed loop through
``wefe.cli.main`` in process, check every output, and print one JSON line.

Started by run.py, which passes the CLOCK_MONOTONIC reading taken just
before the process was spawned, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
from wefe import cli

import tracer as tracing
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    manifests = workloads.read_manifests(
        os.path.join(os.path.dirname(cli.__file__), "manifests"))
    rng = np.random.default_rng(args.seed)
    workload = workloads.WORKLOADS[args.workload](manifests, rng, args.out_dir)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        for target in tracer.missing:
            sys.stderr.write(f"trace: {target} not found; its metrics are "
                             f"left out\n")

    out_paths = []
    times, failures, errors = [], [], []
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    clock = time.perf_counter
    deadline = clock() + args.seconds
    while clock() < deadline:
        for op in workload.next_pass():
            while len(out_paths) < len(op.argvs):
                out_paths.append(os.path.join(
                    args.out_dir, f"report-{len(out_paths)}.json"))
            for path in out_paths:
                if os.path.exists(path):
                    os.remove(path)
            codes = []
            t0 = clock()
            try:
                for argv, path in zip(op.argvs, out_paths):
                    codes.append(cli.main(argv + ["--out", path]))
            except Exception:       # a crash is a failed operation
                times.append(clock() - t0)
                failures.append(traceback.format_exc(limit=2).strip())
                continue
            times.append(clock() - t0)
            results = []
            for rc, path in zip(codes, out_paths):
                report = None
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        report = json.load(fh)
                results.append((rc, report))
            failure, errs = op.check(results)
            if failure is not None:
                failures.append(failure)
            errors.extend(errs)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "op_times": times,
        "attempted": len(times),
        "failed": len(failures),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.save(os.path.join(args.out_dir,
                                 f"trace-seed{args.seed}.npz"))
        result["per_layer"] = tracer.metrics(
            len(times), usage.ru_minflt - faults0)
    checks = workload.once_per_run()
    errors.extend(v for v in checks.values() if v.startswith("failed"))
    result["checks"] = checks
    result["failures"] = sorted(set(failures))
    result["errors"] = errors[:20]
    result["correct"] = not errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
