#!/usr/bin/env python3
"""Builds and runs the Quanto pipeline benchmark for one workload.

    python3 perfbench/run.py --workload grid_stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark binary is built in Release
from perfbench/CMakeLists.txt (its own build of the library sources in
src/) into perfbench/build, or into $CARGO_TARGET_DIR/perfbench when that
is set. Spills go to a scratch directory under the build directory, which
is removed when the run ends. The last line of standard output is the
run's JSON result; --trace 1 also writes the run's spans as Chrome
trace-event JSON to <build>/spans/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("grid_stream", "grid_ledger", "spill_query")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR")
    return (root / target / "perfbench") if target else (root / "perfbench" / "build")


def build(root, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "quanto_perfbench",
                  "-j", "4"])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    binary = out_dir / "quanto_perfbench"
    if not binary.exists():
        fail("build produced no binary")
    return binary


def run(binary, args, work_dir, spans):
    cmd = [str(binary), "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    # Own session, so a timeout can stop the spill generators it forks too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny networks and one round: a quick functional check")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "apps" / "scale_network.h").is_file():
        fail(f"no Quanto sources under {root / 'src'}; run from a full checkout", 2)

    out_dir = build_dir(root)
    binary = build(root, out_dir)
    work_dir = out_dir / "work" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    spans = None
    if args.trace:
        (out_dir / "spans").mkdir(exist_ok=True)
        spans = out_dir / "spans" / f"{args.workload}-seed{args.seed}.trace.json"
    try:
        lines = run(binary, args, work_dir, spans)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
