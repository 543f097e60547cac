#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and quartile spread (IQR / median), the figure the benchmark's
bounds are set against. Run from the root of a checkout:

    python3 rvbench/spread.py --workloads query,detect-narrow --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None, help="comma-separated; default: those in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or ",".join(w["name"] for w in bench["workloads"])
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl in workloads.split(","):
        values, shares = {}, set()
        for seed in range(lo, hi + 1):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
            wall = time.monotonic() - t0
            env = next((l for l in out if l.startswith("env:")), "")
            res = json.loads(out[-1])
            tail = next((l for l in out if l.startswith("tail: op_tail_ms=")), None)
            if tail:
                res["metrics"]["op_tail_ms (printed only)"] = {"value": float(tail.split("=")[1].split()[0])}
            shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed={seed} correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
                  + " steal=" + env.split("steal=")[-1].split()[0] + f" wall={wall:.1f}s", flush=True)
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            note = f" bound={bound} third={bound / 3:.3f}" if bound and args.trace == 0 else ""
            print(f"  {wl} {name}: median={med:.5g} spread={spread:.4f}{note}")
        print(f"  {wl} failed shares: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
