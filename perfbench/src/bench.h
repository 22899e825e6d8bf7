// Shared pieces of the Quanto pipeline benchmark: timing, statistics, the
// span tracer, the run outcome and the pipeline phases every workload is
// assembled from. Everything here calls the program through its public
// headers only; measurement happens from outside the library.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/trace_reader.h"
#include "src/core/log_entry.h"
#include "src/util/units.h"

namespace perfbench {

using quanto::LogEntry;
using quanto::node_id_t;
using quanto::Tick;

// --- Time and statistics ------------------------------------------------------

double NowS();
double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double Sum(const std::vector<double>& values);
// Process peak resident set, MB (getrusage; monotone over the process).
double PeakRssMb();

// Sets glibc's mmap and trim thresholds (bytes); false if mallopt refuses.
bool SetHeapThresholds(int mmap_threshold, int trim_threshold);

// --- Spans --------------------------------------------------------------------

// The layers spans are charged to. They are the program's modules; kBench is
// the benchmark's own work (checks, demultiplexing, reference filters).
enum class Layer { kBench, kSim, kApps, kEmit, kRead, kModel, kCount };
const char* LayerName(Layer layer);

struct Span {
  const char* name;
  Layer layer;
  double start_s;
  double end_s;
  int32_t parent;  // Index into the span list, -1 for a root.
};

// Spans recorded around calls into the program's public functions. Kept in
// memory and written when the run ends. Single-threaded: every span opens
// and closes on the benchmark's main thread.
class Tracer {
 public:
  int32_t Begin(const char* name, Layer layer);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  // Per layer: span time not covered by child spans, ms.
  std::map<Layer, double> SelfMs() const;
  // Chrome trace-event JSON (opens in any trace viewer).
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

// Null when tracing is off: spans then cost one branch.
extern Tracer* g_tracer;

class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer)
      : id_(g_tracer != nullptr ? g_tracer->Begin(name, layer) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) {
      g_tracer->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t id_;
};

// --- Run outcome --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Outcome {
 public:
  // Records a failed correctness check (the run then reports correct=false).
  void Check(bool ok, const std::string& what);
  // Counts one attempted operation, failed or not.
  void Attempt(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Deterministic figures (counts, hashes, accuracy) that must be identical
  // between traced and untraced runs of one seed.
  void Fingerprint(const std::string& key, const std::string& value) {
    fingerprint_[key] = value;
  }
  const std::map<std::string, std::string>& fingerprint() const {
    return fingerprint_;
  }

 private:
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::string> fingerprint_;
};

std::string Hex(uint64_t v);

// --- Independent spill scan ---------------------------------------------------

// One segment container found by walking the file's bytes, decoded by the
// benchmark's own reading of docs/TRACE_FORMAT.md (not the program's parser).
struct ScannedSegment {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t entries = 0;
  uint16_t version = 0;
  uint64_t time_min = 0;  // First / last entry time of the segment.
  uint64_t time_max = 0;
};

struct SpillScan {
  bool ok = false;
  std::string error;
  uint64_t file_bytes = 0;
  uint64_t data_bytes = 0;   // Bytes of the segment region.
  uint64_t index_bytes = 0;  // Bytes after it (the index block).
  uint64_t entries = 0;
  bool times_monotone = true;
  std::vector<ScannedSegment> segments;
};

// Walks the "QNTO" containers from offset 0 until the bytes stop being a
// container. Times are 32-bit microsecond stamps; every run here is far
// shorter than one wrap (71 minutes), so a decrease anywhere is a
// misordering.
SpillScan ScanSpill(const std::string& path);

// The checks every indexed spill must pass: the scan walks the whole file,
// times never decrease, the index is present and every footer's entry
// count, byte extent and time range equal the scanned segment's, and the
// program's decode, paired with the node each entry was emitted for,
// fingerprints to the merger's own hash. The decode is the linear
// whole-file reader (ReadTraceFile) when `linear_reader`, else the
// bounded-memory one-thread ReadAll. Returns it.
std::vector<LogEntry> CheckSpill(const std::string& path,
                                 const std::vector<node_id_t>& nodes,
                                 uint64_t expected_hash, bool linear_reader,
                                 Outcome* out);

// Digest of an entry sequence's bytes (18-byte packed records), 8 bytes a
// step so a full decode can be checked in a few ms.
uint64_t EntriesDigest(const std::vector<LogEntry>& entries);

// --- Pipeline phases ----------------------------------------------------------

struct NetSpec {
  size_t motes = 0;
  Tick horizon = 0;
  // Sharded streamed core (2 workers + emission consumer, indexed spill) or
  // the single-engine core with per-node traces kept in RAM.
  bool sharded = false;
  size_t threads = 2;  // Sharded worker threads.
  size_t log_capacity = 8192;
  // Program profiling switches (traced runs only).
  bool profile = false;
  // spill_query: probe the exact network energy at these two times so the
  // windowed energy report can be checked (0/0 = no probe).
  Tick window_t0 = 0;
  Tick window_t1 = 0;
};

// Counts that are identical under any pure speed-up.
struct SimCounts {
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t frames = 0;
  uint64_t deliveries = 0;
  uint64_t cross_posts = 0;
  uint64_t lpl_wakeups = 0;
  uint64_t entries_logged = 0;
  uint64_t entries_dropped = 0;
  uint64_t charge_flush_visits = 0;
  uint64_t charge_flushes = 0;
  uint64_t chunks_sealed = 0;
  uint64_t merge_hash = 0;
  uint64_t spill_segments = 0;
};

// Per-layer figures of one simulation, from the program's own counters and
// (traced runs) its profiling series.
struct SimProfile {
  double construct_ms = 0;
  double run_ms = 0;     // RunFor(horizon).
  double tail_ms = 0;    // SealAllChunks and the merger's Finish.
  double close_ms = 0;   // Spill Close (tail segment + index block).
  double arena_mb = 0;
  double arena_allocations = 0;
  double window_p50_us = 0;
  double window_p99_us = 0;
  double barrier_ms = 0;
  double drain_phase_ms = 0;
  double drain_ms = 0;
  double seal_ms = 0;
  double flush_ms = 0;
  double merge_ms = 0;
  double consumer_stall_ms = 0;
  double runs_queued_peak = 0;
  double peak_buffered = 0;
  double data_mb = 0;
  double index_mb = 0;
};

// Ground truth read from the simulator after the run.
struct NodeTruth {
  node_id_t id = 0;
  double true_uj = 0;      // IcountMeter::TrueEnergy at the end.
  Tick end_time = 0;       // The node's clock when true_uj was read.
  double end_power_uw = 0; // Its exact draw then (PowerModel::TotalPower).
  uint64_t logged = 0;     // Entries the node's logger accepted.
};

struct SimResult {
  double setup_s = 0;  // Construction + power-up.
  double sim_s = 0;    // Start of simulation to a complete trace.
  // sim_s split into slices of identical work in every round: one per
  // kSliceTime of simulated time (sharded: read at the first window
  // barrier past each mark, by a serial hook that only reads the clock),
  // then the tail (seal, merge finish, spill close) last.
  std::vector<double> slice_s;
  SimCounts counts;
  SimProfile profile;
  std::vector<NodeTruth> truth;
  // Sharded runs: the logging node of every spilled entry, in spill order,
  // recorded by the benchmark's emit hook (the spill stores no node id).
  std::vector<node_id_t> entry_nodes;
  // In-RAM runs: every node's complete log.
  std::vector<std::vector<LogEntry>> node_traces;
  // Exact network energy over [window_t0, window_t1] when probed.
  double window_true_uj = 0;
  double total_true_uj = 0;
};

// Builds, powers up and runs one network. Sharded runs spill to
// `spill_path`; in-RAM runs keep node_traces. `setup_only` stops after
// set-up (only setup_s and the construction figures are filled in).
SimResult RunNetwork(const NetSpec& spec, const std::string& spill_path,
                     bool setup_only = false);

// In-RAM runs: merges the node logs with the library's MergeTraces (time,
// node, log order) into an indexed spill through FileTraceSink, recording
// each entry's node and the merged-trace fingerprint on the way. The logs
// are moved into the merge and handed back unchanged.
struct MergedSpill {
  bool ok = false;
  std::vector<node_id_t> nodes;
  uint64_t hash = 0;
  double close_s = 0;  // FileTraceSink::Close.
  double index_mb = 0;
  uint64_t segments = 0;
};
MergedSpill WriteMergedSpill(std::vector<std::vector<LogEntry>>* traces,
                             const std::vector<NodeTruth>& truth,
                             const std::string& path);

// Splits a merged spill back into per-node logs with the recorded nodes.
std::vector<std::vector<LogEntry>> Demux(const std::vector<LogEntry>& entries,
                                         const std::vector<node_id_t>& nodes,
                                         const std::vector<NodeTruth>& truth);

// Node i's complete log (mote order). The reference stays valid until the
// next call; fetching it is not part of the timed analysis.
using TraceSource = std::function<const std::vector<LogEntry>&(size_t)>;

// Slice length of SimResult::slice_s.
inline constexpr Tick kSliceTime = quanto::Milliseconds(50);

struct LedgerResult {
  double seconds = 0;  // Per-node logs to the finished network ledger.
  std::vector<double> node_s;  // Each node's share of `seconds`.
  double parse_ms = 0;
  double regress_ms = 0;
  double account_ms = 0;
  double ledger_ms = 0;
  uint64_t entries = 0;
  size_t nodes_solved = 0;
  std::vector<double> fit_err;     // Per node: regression relative error.
  std::vector<double> energy_err;  // Per node: |accounted - exact| / exact.
  std::vector<double> draw_err;    // Radio RX/TX column groups vs exact draw.
};

// Section 2.5 regression, activity accounting and the NetworkLedger over
// every node's log. Every regression must solve and the ledger total must
// equal the sum of the node totals; with `check_accuracy`, each node's
// accounted energy and its radio draws must also lie within the tolerances
// below of the simulator's exact meters and draws. The accuracy figures are
// measured either way; `seconds` covers only the program's calls.
LedgerResult RunLedger(const TraceSource& traces,
                       const std::vector<NodeTruth>& truth,
                       bool check_accuracy, Outcome* out);

// Tolerances of the ledger accuracy checks (relative).
inline constexpr double kEnergyTolerance = 0.02;
inline constexpr double kDrawTolerance = 0.05;

// The filtered queries. kTime is the query the repo's read-path tooling
// runs (bench_read_path, tools/run_benchmarks.sh): a slice of 10% of the
// run. Origin and activity lists have no recorded use; they are run and
// checked, but timed only into per-layer figures.
enum class QueryKind : uint8_t { kTime, kOrigin, kActivity };
inline constexpr QueryKind kQueryKinds[] = {QueryKind::kTime, QueryKind::kOrigin,
                                            QueryKind::kActivity};
const char* QueryKindName(QueryKind kind);

// The reads of one round, all on one open TraceFileReader.
struct ReadPlan {
  size_t decodes = 0;    // Back-to-back full ReadAll(2) decodes.
  size_t queries[3] = {0, 0, 0};  // Per QueryKind.
  size_t summaries = 0;  // Back-to-back footer-only ActivityTotals.
  // spill_query: the two energy-from-merged-spill operations.
  bool energy_ops = false;
};

struct ReadResult {
  // Each call of the round's back-to-back batches, s.
  std::vector<double> decode_s;
  std::vector<double> query_s[3];  // Per QueryKind, in query order.
  std::vector<double> summary_s;
  // Per-layer.
  double open_ms = 0;  // TraceFileReader constructor (index parse).
  double decode_1t_ms = 0;
  double linear_ms = 0;
  uint64_t segments_read = 0;
  uint64_t segments_skipped = 0;
  uint64_t selected[3] = {0, 0, 0};
  uint64_t decoded[3] = {0, 0, 0};
  uint64_t summary_segments_decoded = 0;
  double window_report_ms = 0;
};

struct SpillTruth {
  double total_true_uj = 0;
  double window_true_uj = 0;
  Tick window_t0 = 0;
  Tick window_t1 = 0;
};

struct QueryCase {
  QueryKind kind = QueryKind::kTime;
  quanto::TraceQuery query;
  // The benchmark's own filter applied to the full decode.
  uint64_t expected_entries = 0;
  uint64_t expected_digest = 0;
};

// Everything the reads are checked against, computed from a full decode
// that has itself been checked; the decode is not kept.
struct ReadInputs {
  uint64_t entries = 0;  // Of the full decode.
  uint64_t digest = 0;
  std::vector<QueryCase> queries;
  // Activity-typed entries per label, counted over the full decode.
  std::map<quanto::act_t, uint64_t> label_entries;
};
// Draws plan.queries[k] queries of each kind from `seed`: 10% time slices
// spread evenly over the trace, 1-4 activity origins, 1-2 activity labels.
ReadInputs MakeReadInputs(const std::vector<LogEntry>& all, const ReadPlan& plan,
                          uint64_t seed);

// Runs one round of reads against an indexed spill. Every result is
// checked against `inputs`.
void RunReads(const std::string& path, const ReadInputs& inputs,
              const ReadPlan& plan, const SpillTruth& truth, ReadResult* result,
              Outcome* out);

// Standalone engine and instrumentation micro-measurements.
double ChurnEventsPerS(uint64_t events);
double NotifyNs(size_t calls);

// --- Workloads ----------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  // Scratch directory for spills; removed by the caller.
  std::string work_dir;
  // Traced runs: where the spans are written (Chrome trace-event JSON).
  std::string spans_path;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

// Runs one workload; false for an unknown name.
bool RunWorkload(const RunOptions& options, Outcome* out, Report* report);

// The benchmark's own tests; returns the number of failures.
int SelfTest(const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
