#!/usr/bin/env python3
"""Measures the benchmark baseline and writes perfbench/BASELINE.json.

Run from the repository root:

    python3 perfbench/baseline.py

For each workload in BENCHMARK.json it makes one untraced run per seed
1-10 and one traced run at seed 1, then records each end-to-end
metric's median and quartiles over the seeds (as
statistics.quantiles(values, n=4) gives them), with the sample count,
and the traced run's per-layer metrics.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

SEEDS = list(range(1, 11))
OUT = "perfbench/BASELINE.json"
NOTE = ("The simulator is not validated against real hardware: these are "
        "host-time and simulated-count figures, not accuracy figures.")


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    result = {
        "note": NOTE,
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model()},
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run(name, s, seconds, 0) for s in SEEDS]
        traced = run(name, SEEDS[0], seconds, 1)
        e2e = {}
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            e2e[metric] = {"unit": runs[0]["metrics"][metric]["unit"], "n": len(vals),
                           "median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0}
            print(f"{name:14s} {metric:12s} median {med:10.4f} spread {e2e[metric]['spread']:.3f}"
                  f" (bound {bounds[metric]})", file=sys.stderr)
        result["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": {k: v for k, v in sorted(traced["metrics"].items())},
        }
    with open(OUT, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
