#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median) against the
bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload query --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --json out.json

Run it from the repository root. Seeds run one after another; the
benchmark's own command (from BENCHMARK.json) is used unless --bin names
an already built benchmark executable.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), (json.loads(lines[-2]) if len(lines) > 1 else {})


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bin", default=None, help="benchmark executable to run")
    ap.add_argument("--json", default=None, help="write every run's result here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]

    runs = {}
    ok = True
    for w in workloads:
        results = []
        for s in seeds(args.seeds):
            result, report = run_once(command, w, s, seconds, args.trace)
            results.append(result)
            steal = report.get("report", {}).get("host_steal_pct")
            print(f"{w} seed {s}: steal%={steal if steal is None else round(steal, 1)} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            if not result["correct"]:
                ok = False
                print(f"{w} seed {s}: correct=false failed={result['failed']} "
                      f"{report.get('report', {}).get('failures')}")
        runs[w] = results
        print(f"\n{w}: {len(results)} runs, {seconds}s each")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) < 2:
                print(f"  {name:28s} {values[0]:>14.6g} {unit}")
                continue
            med, sp = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if sp <= bound / 3 else ("WIDE" if sp <= bound else "OVER")
                ok = ok and sp <= bound
            print(f"  {name:28s} median {med:>14.6g} {unit:6s} spread {sp:7.4f}"
                  f"  bound {bound if bound is not None else '-'} {mark}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
