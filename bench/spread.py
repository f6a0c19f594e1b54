#!/usr/bin/env python3
"""Run every workload over several seeds and print, per end-to-end metric,
the median and the spread the driver computes: the distance between the
first and third quartile as a share of the median.

    python3 bench/spread.py FIRST_SEED COUNT [workload,workload...]
"""
import json
import os
import statistics
import subprocess
import sys
import time

repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(repo, "BENCHMARK.json")))
first, count = int(sys.argv[1]), int(sys.argv[2])
names = sys.argv[3].split(",") if len(sys.argv) > 3 else [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

print(f"seeds {first}-{first + count - 1}, {spec['run_seconds']} s a run")
print(f"{'workload':12s} {'metric':12s} {'median':>12s} {'spread':>7s} {'bound':>6s} {'min':>11s} {'max':>11s}")
for name in names:
    values, started = {}, time.time()
    for seed in range(first, first + count):
        run = subprocess.run(
            spec["command"] + ["--workload", name, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=repo, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"{name} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        line = json.loads(run.stdout.strip().splitlines()[-1])
        if not line["correct"]:
            sys.exit(f"{name} seed {seed}: {line['failed']} of {line['attempted']} failed")
        for metric, v in line["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        verdict = "" if spread <= bounds[m["name"]] else "  OVER ITS BOUND"
        print(f"{name:12s} {m['name']:12s} {statistics.median(v):12.5g} {spread:7.3f} {bounds[m['name']]:6.2f} "
              f"{min(v):11.5g} {max(v):11.5g}{verdict}")
    print(f"{name:12s} {(time.time() - started) / count:.1f} s of wall time a run", flush=True)
