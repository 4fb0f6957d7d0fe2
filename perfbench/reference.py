"""Reference figures: ``wefe verify`` over the whole catalog, timed from a
fresh interpreter, with the peak resident set of the verifying process.

    python3 perfbench/reference.py --samples 100
    python3 perfbench/reference.py --samples 1000 --per-entry

``--per-entry`` verifies each entry in its own process, which keeps the peak
near that of one entry (about 1.3 GB at 1000 samples) instead of the sum the
frame cache holds; the summed per-entry ``seconds`` fields then give the
catalog time.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def verify(args, env, out):
    """(exit code, wall seconds, peak RSS in MB, report) of one process."""
    cmd = [sys.executable, "-m", "wefe.cli", "verify", "--out", out] + args
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--per-entry", action="store_true")
    args = ap.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("WEFE_SEED", None)
    runs = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = os.path.join(tmp, "report.json")
        if args.per_entry:
            manifests = os.path.join(SRC, "wefe", "manifests")
            ids = sorted(name[:-len(".manifest")]
                         for name in os.listdir(manifests)
                         if name.endswith(".manifest"))
            for eid in ids:
                runs.append(verify(["--entry", eid, "--samples",
                                    str(args.samples)], env, out))
        else:
            runs.append(verify(["--samples", str(args.samples)], env, out))
    entries = {k: v for *_, rep in runs for k, v in rep["entries"].items()}
    print(json.dumps({
        "samples": args.samples,
        "processes": len(runs),
        "exit_codes": sorted({rc for rc, *_ in runs}),
        "wall_s": round(sum(wall for _, wall, _, _ in runs), 2),
        "verify_s": round(sum(e["seconds"] for e in entries.values()), 2),
        "peak_rss_mb": round(max(rss for _, _, rss, _ in runs), 1),
        "slowest_entry_s": round(max(e["seconds"] for e in entries.values()),
                                 2),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
