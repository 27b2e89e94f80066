"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--out FILE]

For every workload and end-to-end metric this prints the median of the
runs, their quartiles and the spread (third minus first quartile, over the
median), which must stay within the metric's bound in BENCHMARK.json.  One
run per seed, one after another, with the run length from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace=0):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range like 1-10")
    p.add_argument("--out", help="write the summary as JSON here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)),
              "run_seconds": spec["run_seconds"],
              "seeds": seeds_from(args.seeds),
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            res = run_once(spec, workload, seed)
            if not res["correct"]:
                print(f"{workload} seed {seed}: {res['failed']}/{res['attempted']} "
                      "jobs failed", file=sys.stderr)
            runs.append(res)
        report["workloads"][workload] = summary = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name] = s
            flag = "" if s["spread"] <= bound / 3 else \
                ("  > bound/3" if s["spread"] <= bound else "  > BOUND")
            print(f"{workload:12s} {name:14s} median {s['median']:12.4f} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:12s} failed jobs: {failed} of "
              f"{sum(r['attempted'] for r in runs)}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
