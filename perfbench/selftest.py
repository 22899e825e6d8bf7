#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. `quanto_perfbench selftest`: a flipped byte inside a spill segment, a
   truncated index and a perturbed node trace must each fail a check, and
   the grid_stream merge hash must be the same at 1 and 2 workers.
2. A smoke run (tiny networks, one round) of every workload, untraced and
   traced: each must be correct, only spill_query may count failed
   operations, and every deterministic figure must agree between the two.
3. In a directory that holds only BENCHMARK.json and perfbench/, run.py
   must exit with an error and print no result.

Exits non-zero when any of them fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py: the build step)

failures = 0


def expect(ok, what):
    global failures
    print(("  ok    " if ok else "  FAIL  ") + what, flush=True)
    failures += 0 if ok else 1


def smoke(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        return None, []
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [l for l in lines if l.startswith("fingerprint ")]


def main():
    out_dir = run.build_dir(ROOT)
    binary = run.build(ROOT, out_dir)

    print("benchmark checks:")
    proc = subprocess.run([str(binary), "selftest", "--work-dir", str(out_dir / "selftest")],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    print(proc.stdout, end="")
    expect(proc.returncode == 0, "quanto_perfbench selftest")

    print("smoke runs:")
    for workload in run.WORKLOADS:
        plain, plain_fp = smoke(workload, 0)
        traced, traced_fp = smoke(workload, 1)
        expect(plain is not None and plain["correct"], f"{workload} untraced smoke is correct")
        expect(traced is not None and traced["correct"], f"{workload} traced smoke is correct")
        if plain is None or traced is None:
            continue
        may_fail = workload == "spill_query"
        expect((plain["failed"] > 0) == may_fail and (traced["failed"] > 0) == may_fail,
               f"{workload} counts failed operations only where the named fault breaks them")
        expect(plain_fp and plain_fp == traced_fp,
               f"{workload} counts, hashes and accuracy agree traced and untraced")

    print("bare directory:")
    bare = out_dir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("build", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid_stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py fails without the program's sources")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: " + ("all passed" if failures == 0 else f"{failures} failed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
