#!/usr/bin/env python3
"""Same-runner performance gate: the benchmark's fig17-full workload, run
in a parent checkout and a change checkout on one machine.

    python3 .github/perf_gate.py PARENT_DIR CHANGE_DIR

Reads `command`, `run_seconds` and `end_to_end` from CHANGE_DIR's
BENCHMARK.json. Runs `command --workload fig17-full --seed 1 --seconds
<run_seconds> --trace 0` from each checkout's root, with CE_MAX_INSTS and
CE_THREADS removed from the environment, in 5 pairs that alternate which
side goes first. Prints every run's end-to-end metrics and each metric's
median per side.

Exits 1 when a run fails or reports `correct: false`, when the change
fails a larger share of its operations than the parent, or when a
metric's median is worse than the parent's by more than its bound
(`better` gives the direction); 2 on a usage error.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
WORKLOAD = "fig17-full"


def run(checkout, command, seconds):
    """One benchmark run in `checkout`: its JSON summary, or None."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CE_MAX_INSTS", "CE_THREADS")}
    args = command + ["--workload", WORKLOAD, "--seed", "1",
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or result["correct"] is not True:
        print(f"perf_gate: error[run]: {checkout}: exit {proc.returncode}\n"
              f"{proc.stderr}", file=sys.stderr)
        return None
    return result


def main():
    if len(sys.argv) != 3:
        print("usage: perf_gate.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    dirs = {"parent": sys.argv[1], "change": sys.argv[2]}
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    runs = {"parent": [], "change": []}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(dirs[side], bench["command"], bench["run_seconds"])
            if result is None:
                return 1
            runs[side].append(result)
            values = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                for m in metrics)
            print(f"pair {pair + 1} {side}: {values}", flush=True)

    failed = False
    share = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
             for side, rs in runs.items()}
    print(f"failed share: parent {share['parent']:.4f}, "
          f"change {share['change']:.4f}")
    if share["change"] > share["parent"]:
        print("perf_gate: error[failed-share]: the change fails more "
              "operations than the parent", file=sys.stderr)
        failed = True

    print(f"{'metric':<12} {'parent':>10} {'change':>10} {'worse':>7} "
          f"{'bound':>6}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        parent, change = (
            statistics.median(r["metrics"][name]["value"] for r in runs[side])
            for side in ("parent", "change"))
        worse = (change - parent) / parent
        if m["better"] == "higher":
            worse = -worse
        print(f"{name:<12} {parent:>10.4g} {change:>10.4g} {worse:>+7.1%} "
              f"{bound:>6.0%}")
        if worse > bound:
            print(f"perf_gate: error[regression]: {name} median {change:.4g} "
                  f"{m['unit']} against the parent's {parent:.4g}, worse by "
                  f"{worse:.1%} (bound {bound:.0%})", file=sys.stderr)
            failed = True
    print("perf_gate: FAILED" if failed else "perf_gate: passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
