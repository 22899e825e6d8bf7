// Reads of an indexed spill: full decodes, seeded filtered queries,
// footer-only summaries and (spill_query) the two operations that answer
// with an energy figure from a merged network spill.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <set>

#include "perfbench/src/bench.h"
#include "src/analysis/accounting.h"
#include "src/analysis/streaming.h"
#include "src/analysis/trace.h"
#include "src/analysis/trace_io.h"

namespace perfbench {

using namespace quanto;  // NOLINT: this file is a client of the whole library.

namespace {

// The per-pulse calibration quanto_report and the footer summary use.
constexpr double kEnergyPerPulse = 8.33;
// A network energy answer within 10% of the exact meters counts as right.
constexpr double kSpillEnergyTolerance = 0.10;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool Selected(const QueryCase& q, const LogEntry& e) {
  if (q.query.has_time_range) {
    return e.time >= q.query.time_min && e.time <= q.query.time_max;
  }
  if (!IsActivityEntry(e)) {
    return false;
  }
  if (!q.query.origins.empty()) {
    node_id_t origin = static_cast<node_id_t>(e.payload >> 16);
    for (node_id_t o : q.query.origins) {
      if (o == origin) {
        return true;
      }
    }
    return false;
  }
  for (act_t a : q.query.activities) {
    if (a == e.payload) {
      return true;
    }
  }
  return false;
}

bool Matches(const std::optional<std::vector<LogEntry>>& got, uint64_t entries,
             uint64_t digest) {
  return got.has_value() && got->size() == entries && EntriesDigest(*got) == digest;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTime: return "time";
    case QueryKind::kOrigin: return "origin";
    case QueryKind::kActivity: return "activity";
  }
  return "?";
}

ReadInputs MakeReadInputs(const std::vector<LogEntry>& all, const ReadPlan& plan,
                          uint64_t seed) {
  ScopedSpan span("MakeReadInputs", Layer::kBench);
  ReadInputs in;
  in.entries = all.size();
  in.digest = EntriesDigest(all);
  std::set<node_id_t> origin_set;
  for (const LogEntry& e : all) {
    if (IsActivityEntry(e)) {
      ++in.label_entries[e.payload];
      node_id_t origin = static_cast<node_id_t>(e.payload >> 16);
      if (origin != 0xFFFFFFFF) {
        origin_set.insert(origin);
      }
    }
  }
  std::vector<node_id_t> origins(origin_set.begin(), origin_set.end());
  std::vector<act_t> labels;
  for (const auto& [label, n] : in.label_entries) {
    labels.push_back(label);
  }
  if (all.empty() || origins.empty()) {
    return in;
  }
  uint64_t first = all.front().time;
  uint64_t last = all.back().time;
  uint64_t slice = (last - first) / 10;
  uint64_t rng = seed * 0x2545F4914F6CDD1Dull + 17;
  for (QueryKind kind : kQueryKinds) {
    for (size_t i = 0; i < plan.queries[static_cast<int>(kind)]; ++i) {
      QueryCase q;
      q.kind = kind;
      if (kind == QueryKind::kTime) {
        // One slice in each of n equal strata of the possible starts, the
        // seed drawing where in it: every seed's slices cover the trace
        // alike, so the work does not depend on the seed.
        uint64_t room = last - first - slice;
        uint64_t n = plan.queries[static_cast<int>(kind)];
        uint64_t start = first + room * i / n + SplitMix(&rng) % (room / n + 1);
        q.query.has_time_range = true;
        q.query.time_min = std::min(start, first + room);
        q.query.time_max = q.query.time_min + slice;
      } else if (kind == QueryKind::kOrigin) {
        size_t n = 1 + SplitMix(&rng) % 4;
        for (size_t k = 0; k < n; ++k) {
          q.query.origins.push_back(origins[SplitMix(&rng) % origins.size()]);
        }
      } else {
        size_t n = 1 + SplitMix(&rng) % 2;
        for (size_t k = 0; k < n; ++k) {
          q.query.activities.push_back(labels[SplitMix(&rng) % labels.size()]);
        }
      }
      std::vector<LogEntry> want;
      for (const LogEntry& e : all) {
        if (Selected(q, e)) {
          want.push_back(e);
        }
      }
      q.expected_entries = want.size();
      q.expected_digest = EntriesDigest(want);
      in.queries.push_back(std::move(q));
    }
  }
  return in;
}

// While reading, freed memory stays in the heap: each decode reuses its
// predecessor's output pages instead of faulting in fresh ones, a kernel
// cost that varies by more than 2x from minute to minute on a shared host
// and would swamp the decode work. A caller that decodes once pays it.
class RetainHeap {
 public:
  RetainHeap() { SetHeapThresholds(1 << 30, 1 << 30); }
  ~RetainHeap() {
    SetHeapThresholds(32 << 20, 64 << 20);
    malloc_trim(0);
  }
  RetainHeap(const RetainHeap&) = delete;
  RetainHeap& operator=(const RetainHeap&) = delete;
};

void RunReads(const std::string& path, const ReadInputs& inputs,
              const ReadPlan& plan, const SpillTruth& truth, ReadResult* result,
              Outcome* out) {
  RetainHeap retain;
  std::unique_ptr<TraceFileReader> reader;
  double t_open = NowS();
  {
    ScopedSpan s("TraceFileReader::TraceFileReader", Layer::kRead);
    reader = std::make_unique<TraceFileReader>(path);
  }
  result->open_ms = (NowS() - t_open) * 1e3;
  out->Check(reader->ok() && reader->has_index(), "cannot open indexed spill " + path);

  // Each batch is timed call by call, so checking a result between calls
  // is not timed.
  for (size_t d = 0; d < plan.decodes; ++d) {
    std::optional<std::vector<LogEntry>> got;
    double t0 = NowS();
    {
      ScopedSpan s("TraceFileReader::ReadAll", Layer::kRead);
      got = reader->ReadAll(2);
    }
    result->decode_s.push_back(NowS() - t0);
    bool ok = Matches(got, inputs.entries, inputs.digest);
    out->Check(ok, "ReadAll(2) differs from the reference decode");
    out->Attempt(ok);
  }

  for (size_t i = 0; i < inputs.queries.size(); ++i) {
    const QueryCase& q = inputs.queries[i];
    int k = static_cast<int>(q.kind);
    ReadStats stats;
    std::optional<std::vector<LogEntry>> got;
    double t0 = NowS();
    {
      ScopedSpan s("TraceFileReader::ReadFiltered", Layer::kRead);
      got = reader->ReadFiltered(q.query, 2, &stats);
    }
    result->query_s[k].push_back(NowS() - t0);
    bool ok = Matches(got, q.expected_entries, q.expected_digest);
    out->Check(ok, std::string(QueryKindName(q.kind)) + " query " +
                       std::to_string(i) + " differs from the benchmark's filter");
    out->Attempt(ok);
    result->segments_read += stats.segments_read;
    result->segments_skipped += stats.segments_skipped;
    result->selected[k] += stats.entries_selected;
    result->decoded[k] += stats.entries_decoded;
  }

  for (size_t i = 0; i < plan.summaries; ++i) {
    ReadStats stats;
    std::optional<std::map<act_t, ActivitySummary>> totals;
    double t0 = NowS();
    {
      ScopedSpan s("TraceFileReader::ActivityTotals", Layer::kRead);
      totals = reader->ActivityTotals(&stats);
    }
    result->summary_s.push_back(NowS() - t0);
    result->summary_segments_decoded += stats.segments_read;
    // Rows with pulses but no entries (the CPU's idle label before its
    // first set) carry no count to compare.
    bool ok = totals.has_value();
    size_t rows = 0;
    if (ok) {
      for (const auto& [label, row] : *totals) {
        if (row.entries > 0) {
          ++rows;
          auto it = inputs.label_entries.find(label);
          ok &= it != inputs.label_entries.end() && it->second == row.entries;
        }
      }
    }
    ok &= rows == inputs.label_entries.size();
    out->Check(ok, "summary entry counts differ from the decoded stream");
    out->Attempt(ok);
  }

  if (g_tracer != nullptr) {
    // Per-layer decode costs: one thread, and the linear whole-file reader.
    double t0 = NowS();
    {
      ScopedSpan s("TraceFileReader::ReadAll", Layer::kRead);
      out->Check(Matches(reader->ReadAll(1), inputs.entries, inputs.digest),
                 "ReadAll(1) differs");
    }
    double t1 = NowS();
    {
      ScopedSpan s("ReadTraceFile", Layer::kRead);
      out->Check(Matches(ReadTraceFile(path), inputs.entries, inputs.digest),
                 "linear read differs");
    }
    result->decode_1t_ms = (t1 - t0) * 1e3;
    result->linear_ms = (NowS() - t1) * 1e3;
  }

  if (!plan.energy_ops) {
    return;
  }
  // The windowed energy report, as quanto_report --time-range computes it:
  // a time-sliced read, the regression, then activity accounting. A merged
  // network spill stores no logging node, so the slice interleaves every
  // mote's iCount counter. Counted as failed unless it lands within 10% of
  // the exact network energy over the window.
  {
    double t0 = NowS();
    TraceQuery q;
    q.has_time_range = true;
    q.time_min = truth.window_t0;
    q.time_max = truth.window_t1;
    std::optional<std::vector<LogEntry>> slice;
    {
      ScopedSpan s("TraceFileReader::ReadFiltered", Layer::kRead);
      slice = reader->ReadFiltered(q, 2);
    }
    double report = 0;
    bool solved = false;
    if (slice.has_value()) {
      StreamingPipeline pipe;
      PipelineResult fit;
      {
        ScopedSpan s("StreamingPipeline::Add", Layer::kModel);
        pipe.AddAll(*slice);
      }
      {
        ScopedSpan s("StreamingPipeline::Solve", Layer::kModel);
        fit = pipe.Solve();
      }
      if (fit.ok) {
        std::vector<TraceEvent> events;
        {
          ScopedSpan s("TraceParser::Parse", Layer::kModel);
          events = TraceParser::Parse(*slice);
        }
        ScopedSpan s("ActivityAccountant::Run", Layer::kModel);
        ActivityAccountant::Options opts;
        opts.constant_power = fit.coefficients.back();
        ActivityAccountant accountant(
            PowerFromColumns(pipe.columns(), fit.coefficients), opts);
        report = accountant.Run(events, 1).TotalEnergy();
        solved = true;
      }
    }
    result->window_report_ms = (NowS() - t0) * 1e3;
    bool ok = solved && std::fabs(report - truth.window_true_uj) <=
                            kSpillEnergyTolerance * truth.window_true_uj;
    out->Attempt(ok);
    if (!ok && out->failed() == 1) {
      std::cerr << "windowed energy report: " << report / 1e3
                << " mJ; exact network energy over the window: "
                << truth.window_true_uj / 1e3 << " mJ\n";
    }
  }
  // The footer summary's per-activity energy, summed: pulses x 8.33 uJ
  // against the exact energy of every mote over the whole run.
  {
    auto totals = reader->ActivityTotals();
    double pulses = 0;
    if (totals.has_value()) {
      for (const auto& [label, row] : *totals) {
        pulses += static_cast<double>(row.pulses);
      }
    }
    double summary = pulses * kEnergyPerPulse;
    bool ok = totals.has_value() &&
              std::fabs(summary - truth.total_true_uj) <=
                  kSpillEnergyTolerance * truth.total_true_uj;
    out->Attempt(ok);
    if (!ok && out->failed() == 2) {
      std::cerr << "footer summary energy: " << summary / 1e3
                << " mJ; exact network energy: " << truth.total_true_uj / 1e3
                << " mJ\n";
    }
  }
}

}  // namespace perfbench
