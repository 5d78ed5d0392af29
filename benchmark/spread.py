#!/usr/bin/env python3
"""Measures the run-to-run spread the end-to-end bounds in BENCHMARK.json
come from, and writes it with the raw results to
benchmark/results/seed-spread.json.

Run from the repository root, after building the benchmark once:

    python3 benchmark/spread.py [--sets 2] [--seeds 10]

Set A uses seeds 1 to N, set B seeds N+1 to 2N, and so on. Within a set,
each seed runs every workload in turn, untraced, with BENCHMARK.json's
command and run_seconds. Per metric the bound is the largest over the
workloads of max(2 x (max - min) / median, 2%) over all runs, rounded up
to a whole percent and capped at 25%; setup_s takes 25%. The bounds are
printed and recorded; copying them into BENCHMARK.json is left to the
reader.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

CAP = 0.25
FLOOR = 0.02
OUT = "benchmark/results/seed-spread.json"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}\n")
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": round(wall, 2), "result": result}


def iqr_share(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = {}
    for s in range(args.sets):
        name = chr(ord("A") + s)
        runs[name] = []
        for seed in range(s * args.seeds + 1, (s + 1) * args.seeds + 1):
            for workload in workloads:
                r = run(bench["command"], workload, seed, seconds)
                runs[name].append(r)
                print(f"set {name} seed {seed} {workload}: {r['wall_s']} s",
                      flush=True)

    spread, uncapped = {}, {}
    for workload in workloads:
        spread[workload] = {}
        for metric, spec in metrics.items():
            per_set = {
                name: [r["result"]["metrics"][metric]["value"]
                       for r in rs if r["workload"] == workload
                       and r["result"] and r["result"]["correct"]]
                for name, rs in runs.items()
            }
            values = [v for vs in per_set.values() for v in vs]
            median = statistics.median(values)
            entry = {
                "n": len(values), "median": median,
                "min": min(values), "max": max(values),
                "range_share": round((max(values) - min(values)) / median, 4),
                "sets": {name: {"median": statistics.median(vs),
                                "iqr_share": round(iqr_share(vs), 4)}
                         for name, vs in per_set.items()},
            }
            medians = [statistics.median(vs) for vs in per_set.values()]
            worse = (medians[-1] - medians[0]) / medians[0]
            if spec["better"] == "higher":
                worse = -worse
            entry["last_set_worse_by"] = round(worse, 4)
            spread[workload][metric] = entry
            uncapped[metric] = max(uncapped.get(metric, 0.0),
                                   2 * entry["range_share"])

    bounds = {}
    for metric, value in uncapped.items():
        bound = math.ceil(max(value, FLOOR) * 100 - 1e-9) / 100
        bounds[metric] = CAP if metric == "setup_s" else min(bound, CAP)
    doc = {
        "about": (f"Raw results behind the end-to-end bounds in "
                  f"BENCHMARK.json: every workload run untraced with a "
                  f"{seconds}-second window, as {args.sets} sets of "
                  f"{args.seeds} seeds; within a set, each seed runs the "
                  f"workloads in turn. Written by benchmark/spread.py."),
        "machine": (f"{os.cpu_count()} vCPUs of {cpu_model()}, "
                    f"{platform.system()} {platform.release()}"),
        "command": " ".join(bench["command"]) + (
            f" --workload <workload> --seed <n> --seconds {seconds} --trace 0"),
        "bound_rule": ("per metric, the largest over workloads of "
                       "max(2 x (max - min) / median, 2%) over all runs, "
                       "rounded up to a whole percent and capped at 25%; "
                       "setup_s takes 25%"),
        "bounds": bounds,
        "uncapped_bounds": {m: round(v, 4) for m, v in uncapped.items()},
        "spread": spread,
        "runs": runs,
    }
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for workload, per_metric in spread.items():
        for metric, e in per_metric.items():
            sets = " ".join(f"{n}: iqr {s['iqr_share']:.3f}"
                            for n, s in e["sets"].items())
            print(f"{workload:13} {metric:12} range {e['range_share']:.3f} "
                  f"{sets} last set worse by {e['last_set_worse_by']:+.3f}")
    print("bounds:", json.dumps(bounds))
    failed = sum(1 for rs in runs.values() for r in rs
                 if r["exit"] != 0 or not r["result"]
                 or not r["result"]["correct"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
