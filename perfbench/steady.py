#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --runs 10 [--workloads grid_stream,spill_query]
                                [--seconds 20] [--seed-base 100] [--sets 2]

Runs each workload --runs times per set, every run in a fresh process
through perfbench/run.py with its own seed (seed-base + 100 x set + run
index), and alternates the order of the workloads between runs. For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json; with --sets 2 it also prints the second set's median and
spread and how far its median moved from the first set's, in the metric's
worse direction. The bounds in BENCHMARK.json
are derived from this output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = wall
    return result


def run_set(workloads, runs, seconds, seed_base):
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, seed_base + i, seconds)
            results[w].append(r)
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
            print(f"  run {i + 1}/{runs} {w}: {r['wall_s']:.1f} s, correct={r['correct']}, "
                  f"failed {r['failed']}/{r['attempted']}, {values}", file=sys.stderr,
                  flush=True)
    return results


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = [run_set(workloads, args.runs, seconds, args.seed_base + 100 * k)
            for k in range(args.sets)]
    for w in workloads:
        runs = sets[0][w]
        walls = [r["wall_s"] for r in runs]
        shares = {(r["failed"], r["attempted"]) for s in sets for r in s[w]}
        ratios = sorted({f / a for f, a in shares})
        print(f"\n## {w}: {len(runs)} runs x {len(sets)} set(s), run {seconds:g} s, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s, all correct: "
              f"{all(r['correct'] for s in sets for r in s[w])}, failed share(s): "
              f"{', '.join(f'{x:.6f}' for x in ratios)}")
        header = "| metric | unit | median | Q1 | Q3 | spread | bound | spread < bound/3 |"
        if len(sets) == 2:
            header += " set-2 median | set-2 spread | worse by |"
        print(header)
        print("|" + "---|" * (header.count("|") - 1))
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            row = (f"| {name} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                   f"{spread:.4f} | {m['bound']} | "
                   f"{'yes' if spread < m['bound'] / 3 else 'NO'}"
                   f"{' (exempt)' if name == 'setup_s' else ''} |")
            if len(sets) == 2:
                med2, _, _, spread2 = summarize(
                    [r["metrics"][name]["value"] for r in sets[1][w]])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                row += f" {med2:.6g} | {spread2:.4f} | {worse:+.4f} |"
            print(row)


if __name__ == "__main__":
    main()
