"""Benchmark for wefe: one workload per invocation.

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Set-up is measured SETUPS times, each in a fresh interpreter; the
last of those processes also runs the timed closed loop.  With ``--trace 0``
the last line of standard output is one JSON object holding the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  Reports
and traces go to ``.perfbench-run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify-sweep", "point-query")
SETUPS = 7
CHILD_TIMEOUT_S = 150


def spawn(args, out_dir, env, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(res, setups):
    times_ms = [1e3 * t for t in res["op_times"]]
    completed = res["attempted"] - res["failed"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(res["op_times"]), "1/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(times_ms, n=10,
                                           method="inclusive")[8], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wefe", "cli.py")):
        sys.stderr.write(f"error: no wefe sources under {SRC}\n")
        return 2
    out_dir = os.path.join(ROOT, ".perfbench-run", args.workload)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("WEFE_SEED", None)      # the program's default sample scramble

    try:
        setups = [spawn(args, out_dir, env, True)["setup_s"]
                  for _ in range(SETUPS - 1)]
        res = spawn(args, out_dir, env, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"error: {args.workload}: {exc}\n")
        return 1
    setups.append(res["setup_s"])
    if res["attempted"] < 2:
        sys.stderr.write(f"error: only {res['attempted']} operation ran\n")
        return 1

    for name, outcome in res["checks"].items():
        print(f"check {name}: {outcome}")
    for failure in res["failures"]:
        print(f"failed operation: {failure.splitlines()[-1]}")
    for error in res["errors"]:
        print(f"wrong output: {error}")
    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["trace.op_p50_ms"] = {
            "value": 1e3 * statistics.median(res["op_times"]), "unit": "ms"}
    else:
        metrics = end_to_end(res, setups)
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
