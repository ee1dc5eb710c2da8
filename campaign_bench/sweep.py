#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises every metric.

Usage (from the repository root):

    python3 campaign_bench/sweep.py --seeds 1-10 [--workloads ladder_dc,...] \
        [--trace 0] [--log sweep.jsonl]

Seeds run in the outer loop and workloads in the inner one, so host drift
spreads over all workloads alike. For each workload and metric it prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread (Q3 - Q1) / median, beside the metric's bound from BENCHMARK.json;
`!` marks a spread above a third of its bound. Each run's result line is
appended to the log as one JSON object.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description="Benchmark seed sweep")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--log", default=os.devnull)
    args = p.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    with open(args.log, "a") as log:
        for seed in args.seeds:
            for w in workloads:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(args.seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
                log.flush()
                results[w].append(result)
                print(f"{w} seed={seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)

    for w in workloads:
        print(f"\n{w}: {len(results[w])} runs")
        print(f"  {'metric':<28} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[w][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results[w]]
            q1, q2, q3 = run.quartiles(values) if len(values) > 1 else (values[0],) * 3
            s = run.spread(values) if len(values) > 1 else 0.0
            bound = bounds.get(name)
            flag = "!" if bound is not None and s > bound / 3 else ""
            print(f"  {name:<28} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} {s:>8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
