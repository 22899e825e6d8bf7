#!/usr/bin/env bash
# Builds the benchmarks in Release mode, runs every bench_* binary, and
# aggregates per-benchmark results into BENCH_results.json at the repo
# root. Benchmarks that emit their own JSON (bench_scale_multihop via
# --json, bench_table4_logging_costs via Google Benchmark's JSON reporter)
# have it embedded inline; text-only benches contribute their exit status,
# wall time and shape-check PASS/FAIL counts.
#
# Usage: tools/run_benchmarks.sh [build-dir]   (default: build-bench)

set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-bench}"
OUT_JSON="$REPO_ROOT/BENCH_results.json"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "== Configuring Release build in $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release \
  >"$SCRATCH/configure.log" 2>&1 || {
  echo "configure failed; see $SCRATCH/configure.log"
  exit 1
}
echo "== Building benchmarks"
cmake --build "$BUILD_DIR" -j "$(nproc)" >"$SCRATCH/build.log" 2>&1 || {
  tail -30 "$SCRATCH/build.log"
  echo "build failed"
  exit 1
}

entries="$SCRATCH/entries.txt"
: >"$entries"

run_bench() {
  local bin="$1"
  local name
  name="$(basename "$bin")"
  local extra_args=()
  local own_json=""
  case "$name" in
    bench_scale_multihop)
      own_json="$SCRATCH/$name.json"
      # Thread sweep for the sharded simulation core: 0 keeps the legacy
      # single-engine trajectory comparable across PRs, 1/2/4/8 record the
      # lockstep-window core (fixed 8-shard decomposition; equal merge
      # hashes across the sweep are the determinism check).
      extra_args=(--json "$own_json" --threads "${SCALE_THREADS:-0,1,2,4,8}")
      ;;
    bench_table4_logging_costs)
      own_json="$SCRATCH/$name.json"
      extra_args=(--benchmark_format=json)
      ;;
  esac

  echo "== Running $name"
  local start end status
  start=$(date +%s.%N)
  if [ "$name" = "bench_table4_logging_costs" ]; then
    "$bin" "${extra_args[@]}" >"$own_json" 2>"$SCRATCH/$name.err"
    status=$?
    cp "$SCRATCH/$name.err" "$SCRATCH/$name.out" 2>/dev/null || true
  else
    "$bin" "${extra_args[@]}" >"$SCRATCH/$name.out" 2>&1
    status=$?
  fi
  end=$(date +%s.%N)
  local wall
  wall=$(python3 -c "print(f'{$end - $start:.3f}')")
  local pass fail
  pass=$(grep -c ': PASS' "$SCRATCH/$name.out" 2>/dev/null || true)
  fail=$(grep -c ': FAIL' "$SCRATCH/$name.out" 2>/dev/null || true)
  printf '%s\t%s\t%s\t%s\t%s\t%s\n' \
    "$name" "$status" "$wall" "${pass:-0}" "${fail:-0}" "$own_json" \
    >>"$entries"
}

found_any=0
for bin in "$BUILD_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  [ -f "$bin" ] || continue
  # bench_read_path needs a spill file to read; it runs in its own phase
  # below, against the trace the read phase generates.
  [ "$(basename "$bin")" = "bench_read_path" ] && continue
  found_any=1
  run_bench "$bin"
done
if [ "$found_any" = 0 ]; then
  echo "no bench_* binaries found in $BUILD_DIR"
  exit 1
fi

python3 - "$entries" "$OUT_JSON" <<'EOF'
import json
import sys
import time

entries_path, out_path = sys.argv[1], sys.argv[2]
benchmarks = []
for line in open(entries_path):
    name, status, wall, passed, failed, own_json = line.rstrip("\n").split("\t")
    record = {
        "name": name,
        "status": "ok" if status == "0" else f"exit {status}",
        "wall_seconds": float(wall),
        "shape_checks": {"pass": int(passed), "fail": int(failed)},
    }
    if own_json:
        try:
            with open(own_json) as f:
                record["results"] = json.load(f)
        except (OSError, ValueError):
            record["results"] = None
    benchmarks.append(record)

out = {
    "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "benchmarks": benchmarks,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(benchmarks)} benchmarks)")
EOF

# Memory-scaling phase: peak RSS per (motes, collection mode) row, each
# row in its own process so getrusage's process-wide high-water mark *is*
# the row's number (in one process later rows would inherit earlier
# peaks). Batch rows keep whole traces in per-mote archives and merge post
# hoc; stream rows run the TraceSink pipeline (bounded rings sealed at
# window barriers into the incremental merge). Grid/4-sink topology, 2
# simulated seconds, 1 thread. Override rows with
# SCALE_MEM_ROWS="motes:mode ..." (mode = batch|stream); empty disables.
MEM_ROWS="${SCALE_MEM_ROWS-2048:batch 2048:stream 4096:stream 8192:stream 16384:stream}"
mem_entries="$SCRATCH/mem_rows.txt"
: >"$mem_entries"
if [ -n "$MEM_ROWS" ] && [ -x "$BUILD_DIR/bench_scale_multihop" ]; then
  for row in $MEM_ROWS; do
    motes="${row%%:*}"
    mode="${row##*:}"
    stream_args=()
    [ "$mode" = "stream" ] && stream_args=(--stream-traces)
    row_json="$SCRATCH/mem_${motes}_${mode}.json"
    echo "== Memory row: $motes motes ($mode)"
    "$BUILD_DIR/bench_scale_multihop" --motes "$motes" --topology grid \
      --sinks 4 --seconds 2 --threads 1 "${stream_args[@]}" \
      --json "$row_json" >"$SCRATCH/mem_${motes}_${mode}.out" 2>&1 || {
      echo "   row failed; see $SCRATCH/mem_${motes}_${mode}.out"
      continue
    }
    printf '%s\t%s\t%s\n' "$motes" "$mode" "$row_json" >>"$mem_entries"
  done
fi

# Wide-node scale phase: the streamed pre-merged grid past the old
# 65 534-mote node-id ceiling, one process per row (peak RSS per row, and
# a row failure cannot poison the in-process sweep). Each row is a full
# bench invocation at --motes N, so its run record (construct_ms, charge
# flush counters, arena stats, merge hash) merges straight into
# BENCH_scale.json's runs. Override rows with
# SCALE_HUGE_ROWS="motes:threads ..."; empty disables.
HUGE_ROWS="${SCALE_HUGE_ROWS-262144:1 262144:4}"
huge_entries="$SCRATCH/huge_rows.txt"
: >"$huge_entries"
if [ -n "$HUGE_ROWS" ] && [ -x "$BUILD_DIR/bench_scale_multihop" ]; then
  for row in $HUGE_ROWS; do
    motes="${row%%:*}"
    threads="${row##*:}"
    row_json="$SCRATCH/huge_${motes}_${threads}.json"
    echo "== Wide-node row: $motes motes ($threads threads)"
    "$BUILD_DIR/bench_scale_multihop" --motes "$motes" --topology grid \
      --sinks 4 --seconds 2 --threads "$threads" --stream-traces \
      --max-rss-mb "$(( motes * 64 / 1024 > 1024 ? motes * 64 / 1024 : 1024 ))" \
      --json "$row_json" >"$SCRATCH/huge_${motes}_${threads}.out" 2>&1 || {
      echo "   row failed; see $SCRATCH/huge_${motes}_${threads}.out"
      continue
    }
    printf '%s\t%s\t%s\n' "$motes" "$threads" "$row_json" >>"$huge_entries"
  done
fi

# Read-path phase: generate an indexed spill at the barrier phase's size
# (16 384-mote grid, streamed collection, footers accumulated by the
# emission consumer as the file is written), then measure the read side —
# full decodes at 1/2/4 reader threads (hash-checked against the linear
# reader), a 10%-of-the-run time-range query (segment skip counters, the
# <= 25% pruning bar enforced in-binary), and the footer-only summary
# query. The RSS guard bounds the per-segment read path: the reader must
# never slurp the whole file. Override with SCALE_READ_ROW="motes:threads"
# (the spill generator's size/threads); empty disables.
READ_ROW="${SCALE_READ_ROW-16384:1}"
read_json=""
if [ -n "$READ_ROW" ] && [ -x "$BUILD_DIR/bench_read_path" ] \
    && [ -x "$BUILD_DIR/bench_scale_multihop" ]; then
  motes="${READ_ROW%%:*}"
  threads="${READ_ROW##*:}"
  echo "== Read-path phase: generating $motes-mote indexed spill"
  if "$BUILD_DIR/bench_scale_multihop" --motes "$motes" --topology grid \
      --sinks 4 --seconds 2 --threads "$threads" --stream-traces \
      --trace "$SCRATCH/readspill" \
      --json "$SCRATCH/readspill_gen.json" \
      >"$SCRATCH/readspill_gen.out" 2>&1; then
    spill="$SCRATCH/readspill.${threads}t.qnto"
    echo "== Read-path phase: bench_read_path over $spill"
    if "$BUILD_DIR/bench_read_path" --trace "$spill" --threads 1,2,4 \
        --repeat 3 --time-frac 0.1 --max-rss-mb 2048 \
        --json "$SCRATCH/read_path.json" \
        >"$SCRATCH/read_path.out" 2>&1; then
      read_json="$SCRATCH/read_path.json"
      cat "$SCRATCH/read_path.out"
    else
      echo "   read bench failed; see $SCRATCH/read_path.out"
      tail -5 "$SCRATCH/read_path.out"
    fi
  else
    echo "   spill generation failed; see $SCRATCH/readspill_gen.out"
  fi
fi

# Keep the canonical copy of the scale benchmark's JSON at the repo root
# so successive PRs have a perf trajectory. Stamp the recording host's
# core count and mark multi-thread rows "timesliced" when the host cannot
# actually run them in parallel — the machine-readable form of the PR 2
# caveat (its container exposed 1 CPU, so its multi-thread numbers were
# timesliced, not parallel). Memory-phase rows are merged in under
# "memory_scaling".
if [ -f "$SCRATCH/bench_scale_multihop.json" ]; then
  NPROC="$(nproc)" python3 - "$SCRATCH/bench_scale_multihop.json" \
    "$REPO_ROOT/BENCH_scale.json" "$mem_entries" "$huge_entries" \
    "$read_json" <<'EOF'
import json
import os
import sys

src, dst = sys.argv[1], sys.argv[2]
mem_entries = sys.argv[3] if len(sys.argv) > 3 else None
huge_entries = sys.argv[4] if len(sys.argv) > 4 else None
read_json = sys.argv[5] if len(sys.argv) > 5 else None
nproc = int(os.environ["NPROC"])
with open(src) as f:
    data = json.load(f)
data["nproc"] = nproc

# Wide-node separate-process rows join the in-process sweep's runs; each
# row's JSON holds exactly one run (its --motes invocation).
if huge_entries and os.path.exists(huge_entries):
    for line in open(huge_entries):
        motes, threads, row_json = line.rstrip("\n").split("\t")
        try:
            with open(row_json) as f:
                row_data = json.load(f)
        except (OSError, ValueError):
            continue
        runs = row_data.get("runs", [])
        if runs:
            run = dict(runs[0])
            run["own_process"] = True
            data["runs"].append(run)

for run in data.get("runs", []):
    run["timesliced"] = run.get("threads", 0) > 1 and run["threads"] > nproc

# Construction-cost trajectory: construct_ms (and the arena footprint
# behind it) per network size, smallest to largest — the record that
# arena-built mote graphs keep construction ~linear in motes. Multiple
# runs at one size collapse to the fastest (construction is identical
# work; the min is the least-noisy sample).
construction = {}
for run in data.get("runs", []):
    motes = run.get("motes")
    cms = run.get("construct_ms")
    if motes is None or cms is None:
        continue
    prev = construction.get(motes)
    if prev is None or cms < prev["construct_ms"]:
        construction[motes] = {
            "motes": motes,
            "construct_ms": cms,
            "arena_bytes_reserved": run.get("arena_bytes_reserved"),
            "arena_allocations": run.get("arena_allocations"),
        }
if construction:
    rows = [construction[m] for m in sorted(construction)]
    for row in rows:
        if row["motes"] and row["construct_ms"] is not None:
            row["construct_us_per_mote"] = round(
                row["construct_ms"] * 1000.0 / row["motes"], 3)
    data["construction_summary"] = rows

mem_rows = []
if mem_entries and os.path.exists(mem_entries):
    for line in open(mem_entries):
        motes, mode, row_json = line.rstrip("\n").split("\t")
        try:
            with open(row_json) as f:
                row_data = json.load(f)
        except (OSError, ValueError):
            continue
        runs = row_data.get("runs", [])
        if not runs:
            continue
        r = runs[0]
        mem_rows.append({
            "motes": int(motes),
            "mode": mode,
            "events_per_sec": r.get("events_per_sec"),
            "peak_rss_mb": r.get("peak_rss_mb"),
            "entries_logged": r.get("entries_logged"),
            "entries_dropped": r.get("entries_dropped"),
            "stream_peak_buffered": r.get("stream_peak_buffered"),
            "merge_hash": r.get("merge_hash"),
        })
if mem_rows:
    data["memory_scaling"] = mem_rows
    # Machine-readable form of the streaming-memory acceptance bar.
    # The original (PR 4) bar extrapolated batch RSS linearly from the
    # 2048-mote batch row; the construction arena has since removed the
    # heap fragmentation that extrapolation was dominated by, so the bar
    # is now stated directly on what streaming must guarantee: the
    # merger's high-water mark stays a small fraction of the entries
    # collected (memory bounded by window footprint, not trace length),
    # and a streamed run beats the batch run at the same scale.
    batch_2048 = next((r for r in mem_rows
                       if r["mode"] == "batch" and r["motes"] == 2048), None)
    stream_2048 = next((r for r in mem_rows
                        if r["mode"] == "stream" and r["motes"] == 2048), None)
    largest_stream = max((r for r in mem_rows if r["mode"] == "stream"),
                         key=lambda r: r["motes"], default=None)
    if batch_2048 and stream_2048 and largest_stream:
        buffered = largest_stream["stream_peak_buffered"] or 0
        logged = largest_stream["entries_logged"] or 1
        data["memory_scaling_summary"] = {
            "batch_2048_rss_mb": batch_2048["peak_rss_mb"],
            "stream_2048_rss_mb": stream_2048["peak_rss_mb"],
            "stream_beats_batch_at_same_scale":
                stream_2048["peak_rss_mb"] < batch_2048["peak_rss_mb"],
            "largest_stream_motes": largest_stream["motes"],
            "largest_stream_rss_mb": largest_stream["peak_rss_mb"],
            "largest_stream_peak_buffered": buffered,
            "largest_stream_entries_logged": logged,
            "buffered_fraction_of_logged": round(buffered / logged, 4),
            "stream_buffering_bounded_by_window":
                buffered <= logged * 0.05,
        }

# Parallel barrier pipeline summary: the per-window seal/merge/barrier
# percentiles of the streamed rows at the largest default phase (16384
# motes), one row per thread count — the machine-readable record of what
# the window barrier costs and where it is spent.
barrier_rows = []
for run in data.get("runs", []):
    if not run.get("stream") or "seal_us" not in run:
        continue
    barrier_rows.append({
        "motes": run.get("motes"),
        "threads": run.get("threads"),
        "windows": run.get("barrier_windows"),
        "construct_ms": run.get("construct_ms"),
        "premerge_seal_calls": run.get("premerge_seal_calls"),
        "chunks_sealed": run.get("chunks_sealed"),
        "seal_us": run.get("seal_us"),
        "merge_us": run.get("merge_us"),
        "barrier_us": run.get("barrier_us"),
        "merge_hash": run.get("merge_hash"),
    })
if barrier_rows:
    biggest = max(r["motes"] for r in barrier_rows)
    data["barrier_summary"] = [r for r in barrier_rows
                               if r["motes"] == biggest]

# Off-barrier emission summary: for the streamed rows at the largest
# phase, the overlap ledger — per-window wall time, the consumer-side
# merge cost (off the barrier), the residual serial barrier, and the
# backpressure counters.
emission_rows = []
for run in data.get("runs", []):
    if not run.get("stream") or "merge_us" not in run:
        continue
    emission_rows.append({
        "motes": run.get("motes"),
        "threads": run.get("threads"),
        "windows": run.get("barrier_windows"),
        "window_wall_us": run.get("window_wall_us"),
        "merge_us": run.get("merge_us"),
        "barrier_us": run.get("barrier_us"),
        "consumer_stall_us": run.get("consumer_stall_us"),
        "runs_queued_peak": run.get("runs_queued_peak"),
        "merge_hash": run.get("merge_hash"),
    })
if emission_rows:
    biggest = max(r["motes"] for r in emission_rows)
    data["emission_summary"] = [r for r in emission_rows
                                if r["motes"] == biggest]

# Fabric drain summary: the per-window drain cost of the profiled rows at
# the largest phase (drain on the workers, drain_us = the slowest
# destination's lane merge; barrier_us = serial residue, hook bookkeeping
# only).
fabric_rows = []
for run in data.get("runs", []):
    if "drain_us" not in run:
        continue
    fabric_rows.append({
        "motes": run.get("motes"),
        "threads": run.get("threads"),
        "windows": run.get("barrier_windows"),
        "cross_posts": run.get("cross_posts"),
        "scheduled_wakeups": run.get("scheduled_wakeups"),
        "skipped_wakeups": run.get("skipped_wakeups"),
        "lanes_skipped": run.get("lanes_skipped"),
        "drain_us": run.get("drain_us"),
        "drain_phase_wall_us": run.get("drain_phase_wall_us"),
        "barrier_us": run.get("barrier_us"),
        "merge_hash": run.get("merge_hash"),
    })
if fabric_rows:
    biggest = max(r["motes"] for r in fabric_rows)
    data["fabric_summary"] = [r for r in fabric_rows
                              if r["motes"] == biggest]

# Charge-flush residue summary: the fused flush (flush_us on the workers,
# inside the pre-barrier seal) next to the serial barrier section it no
# longer occupies (barrier_us), at the largest phase.
residue_rows = []
for run in data.get("runs", []):
    if not run.get("stream") or "flush_us" not in run:
        continue
    residue_rows.append({
        "motes": run.get("motes"),
        "threads": run.get("threads"),
        "windows": run.get("barrier_windows"),
        "charge_flush_visits": run.get("charge_flush_visits"),
        "charge_flush_windows": run.get("charge_flush_windows"),
        "flush_us": run.get("flush_us"),
        "seal_us": run.get("seal_us"),
        "barrier_us": run.get("barrier_us"),
        "merge_hash": run.get("merge_hash"),
    })
if residue_rows:
    biggest = max(r["motes"] for r in residue_rows)
    data["residue_summary"] = [r for r in residue_rows
                               if r["motes"] == biggest]

# Read-path summary: bench_read_path's JSON verbatim — segment count,
# full-decode wall per reader thread count (hash-checked against the
# linear reader), the time-range query's skip counters, and the
# footer-only summary query. hash_equal False means the parallel decoder
# diverged — the bench exits nonzero in that case, so a recorded summary
# with hash_equal true is the byte-identity receipt.
if read_json and os.path.exists(read_json):
    try:
        with open(read_json) as f:
            data["read_summary"] = json.load(f)
    except (OSError, ValueError):
        pass

with open(dst, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
EOF
  echo "wrote $REPO_ROOT/BENCH_scale.json (nproc=$(nproc))"
fi

fails=$(awk -F'\t' '$2 != 0 { print $1 }' "$entries")
if [ -n "$fails" ]; then
  echo "benchmarks with non-zero exit:"
  echo "$fails"
  exit 1
fi
echo "all benchmarks completed"
