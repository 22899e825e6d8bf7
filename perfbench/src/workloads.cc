// The three workloads. Each run repeats a fixed number of whole rounds of
// the same operations (the count follows from --seconds alone, so every run
// of one length does the same work) and checks every output. A traced run
// alternates traced and untraced rounds: the traced ones give the
// per-layer figures, the pair gives the tracing overhead, and every
// deterministic figure must agree between the two.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

constexpr double kMiB = 1048576.0;

struct Profile {
  NetSpec net;
  ReadPlan reads;
  // spill_query: spills generated at set-up (the median is setup_s).
  size_t generations = 0;
  // Set-ups per round: the round's own network plus setups - 1 built and
  // torn down untimed apart from their set-up, so that setup_s covers
  // enough set-up work to be steady.
  size_t setups = 1;
  // Host seconds one round takes on the reference host (README): the run
  // does round(--seconds / round_s) rounds.
  double round_s = 1;
};

// The simulated networks are the reference grid/4-sink mesh at every seed:
// the LPL mesh is chaotic (moving the flood period by 7 us moves the entry
// count by up to 7%), so a seeded network would make sizes and rates differ
// from seed to seed by more than a regression worth catching. The seed
// draws each run's queries instead.
bool MakeProfile(const RunOptions& opt, Profile* p) {
  const bool smoke = opt.smoke;
  if (opt.workload == "grid_stream") {
    p->net.sharded = true;
    p->net.motes = smoke ? 128 : 8192;
    p->net.horizon = smoke ? quanto::Milliseconds(500) : quanto::Seconds(1);
    p->net.log_capacity = 1024;
    p->reads = ReadPlan{10, {12, 2, 2}, 4, false};
    p->setups = 2;
    p->round_s = 3.0;
  } else if (opt.workload == "grid_ledger") {
    p->net.sharded = false;
    p->net.motes = smoke ? 64 : 256;
    p->net.horizon = smoke ? quanto::Seconds(5) : quanto::Seconds(60);
    p->net.log_capacity = 1 << 18;
    p->reads = ReadPlan{10, {12, 2, 2}, 40, false};
    p->setups = smoke ? 3 : 100;
    p->round_s = 3.5;
  } else if (opt.workload == "spill_query") {
    p->net.sharded = true;
    p->net.motes = smoke ? 128 : 8192;
    p->net.horizon = smoke ? quanto::Milliseconds(500) : quanto::Seconds(1);
    p->net.log_capacity = 1024;
    // A 10% slice of the run, starting half way.
    Tick start = quanto::Milliseconds(5);
    p->net.window_t0 = start + p->net.horizon / 2;
    p->net.window_t1 = p->net.window_t0 + p->net.horizon / 10;
    p->generations = smoke ? 2 : 8;
    p->reads = ReadPlan{20, {24, 2, 2}, 6, true};
    p->round_s = 2.0;
  } else {
    return false;
  }
  if (smoke) {
    p->reads.decodes = 2;
    p->reads.queries[0] = 3;
    p->reads.summaries = 2;
  }
  return true;
}

size_t RoundCount(const RunOptions& opt, const Profile& prof) {
  size_t least = opt.trace ? 2 : 1;
  if (opt.smoke) {
    return least;
  }
  return std::max<size_t>(least, std::llround(opt.seconds / prof.round_s));
}

// What one round contributes to the metrics.
struct Round {
  double setup_s = 0;   // Mean of the round's set-ups (sim workloads).
  std::vector<double> slice_s;  // SimResult::slice_s (sim workloads).
  double primary_s = 0; // The round's measured work, for the overhead.
  SimProfile sim;
  LedgerResult ledger;
  ReadResult reads;
  double index_mb = 0;
  double segments = 0;
  double spill_mb = 0;
};

std::vector<double> Field(const std::vector<Round>& rounds,
                          const std::function<double(const Round&)>& f) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    out.push_back(f(r));
  }
  return out;
}

// The host's speed drifts by tens of percent in regimes lasting seconds,
// and interference only ever adds time. Work that repeats identically in
// every round (a simulated slice, one node's analysis, one query, one
// decode) is therefore timed per piece, and a run reports the sum over
// pieces of each piece's fastest time over the run's fixed number of
// rounds: the work's time with every piece at the host's best observed
// speed.
double BestComposite(const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) {
    return 0;
  }
  std::vector<double> best = rounds.front();
  for (const std::vector<double>& r : rounds) {
    best.resize(std::min(best.size(), r.size()));
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], r[i]);
    }
  }
  return Sum(best);
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// The deterministic figures of one round, identical across rounds of one
// seed and between traced and untraced runs.
std::string RoundFingerprint(const SimCounts& c, const LedgerResult& l,
                             uint64_t spill_bytes) {
  std::ostringstream s;
  s << "events=" << c.events << " windows=" << c.windows << " frames=" << c.frames
    << " deliveries=" << c.deliveries << " cross_posts=" << c.cross_posts
    << " lpl_wakeups=" << c.lpl_wakeups << " entries=" << c.entries_logged
    << " dropped=" << c.entries_dropped << " flush_visits=" << c.charge_flush_visits
    << " flushes=" << c.charge_flushes << " chunks=" << c.chunks_sealed
    << " hash=" << Hex(c.merge_hash) << " spill_bytes=" << spill_bytes
    << " fit_err_p50=" << Num(Median(l.fit_err))
    << " fit_err_p99=" << Num(Quantile(l.fit_err, 0.99))
    << " energy_err_p50=" << Num(Median(l.energy_err))
    << " energy_err_p99=" << Num(Quantile(l.energy_err, 0.99))
    << " draw_err_p99=" << Num(Quantile(l.draw_err, 0.99));
  return s.str();
}

// --- Spill generation in a child process (spill_query set-up) ---------------

template <typename T>
void WritePod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
void WriteVec(std::ofstream& f, const std::vector<T>& v) {
  uint64_t n = v.size();
  WritePod(f, n);
  f.write(reinterpret_cast<const char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
}
template <typename T>
bool ReadPod(std::ifstream& f, T* v) {
  return static_cast<bool>(f.read(reinterpret_cast<char*>(v), sizeof(T)));
}
template <typename T>
bool ReadVec(std::ifstream& f, std::vector<T>* v) {
  uint64_t n = 0;
  if (!ReadPod(f, &n) || n > (uint64_t{1} << 32)) {
    return false;
  }
  v->resize(n);
  return static_cast<bool>(
      f.read(reinterpret_cast<char*>(v->data()), static_cast<std::streamsize>(n * sizeof(T))));
}

void WriteInputs(std::ofstream& f, const ReadInputs& in) {
  WritePod(f, in.entries);
  WritePod(f, in.digest);
  WriteVec(f, std::vector<std::pair<quanto::act_t, uint64_t>>(in.label_entries.begin(),
                                                              in.label_entries.end()));
  WritePod(f, static_cast<uint64_t>(in.queries.size()));
  for (const QueryCase& q : in.queries) {
    WritePod(f, q.kind);
    WritePod(f, q.query.has_time_range);
    WritePod(f, q.query.time_min);
    WritePod(f, q.query.time_max);
    WriteVec(f, q.query.origins);
    WriteVec(f, q.query.activities);
    WritePod(f, q.expected_entries);
    WritePod(f, q.expected_digest);
  }
}

bool ReadInputsFrom(std::ifstream& f, ReadInputs* in) {
  std::vector<std::pair<quanto::act_t, uint64_t>> labels;
  uint64_t n = 0;
  if (!ReadPod(f, &in->entries) || !ReadPod(f, &in->digest) || !ReadVec(f, &labels) ||
      !ReadPod(f, &n)) {
    return false;
  }
  in->label_entries.insert(labels.begin(), labels.end());
  in->queries.resize(n);
  for (QueryCase& q : in->queries) {
    if (!ReadPod(f, &q.kind) || !ReadPod(f, &q.query.has_time_range) ||
        !ReadPod(f, &q.query.time_min) || !ReadPod(f, &q.query.time_max) ||
        !ReadVec(f, &q.query.origins) || !ReadVec(f, &q.query.activities) ||
        !ReadPod(f, &q.expected_entries) || !ReadPod(f, &q.expected_digest)) {
      return false;
    }
  }
  return true;
}

// Per-node logs kept in a file, one node in memory at a time, so that the
// reading process's memory is the program's, not the benchmark's.
class NodeTraceFile {
 public:
  bool Open(const std::string& path, size_t nodes) {
    f_.open(path, std::ios::binary);
    offsets_.clear();
    for (size_t i = 0; i < nodes && f_; ++i) {
      offsets_.push_back(f_.tellg());
      uint64_t n = 0;
      ReadPod(f_, &n);
      f_.seekg(static_cast<std::streamoff>(n * sizeof(LogEntry)), std::ios::cur);
    }
    return static_cast<bool>(f_) && offsets_.size() == nodes;
  }
  const std::vector<LogEntry>& Load(size_t i) {
    f_.clear();
    f_.seekg(offsets_.at(i));
    if (!ReadVec(f_, &buffer_)) {
      buffer_.clear();
    }
    return buffer_;
  }

 private:
  std::ifstream f_;
  std::vector<std::streampos> offsets_;
  std::vector<LogEntry> buffer_;
};

// What the reading process keeps of the spill it reads.
struct Generated {
  double generate_s = 0;  // Construction through the spill's Close.
  std::vector<double> slice_s;
  SimCounts counts;
  SimProfile profile;
  SpillTruth truth;
  std::vector<NodeTruth> nodes;
  ReadInputs inputs;  // Last generation only.
};

// Generates the spill in a forked child so that the generator's memory
// stays out of the reading process's peak RSS. With `prepare` the child
// also checks the spill (the linear reader is the reference decode),
// writes the per-node logs to `traces_path` and computes the read inputs;
// the reading process never holds a full decode. False when the child
// fails or one of its checks does (it prints them).
bool GenerateSpill(const NetSpec& spec, const ReadPlan& plan, uint64_t seed,
                   const std::string& spill, const std::string& traces_path,
                   const std::string& side, bool prepare, Generated* g) {
  ScopedSpan span("GenerateSpill", Layer::kBench);
  std::cout.flush();
  std::cerr.flush();
  pid_t pid = fork();
  if (pid < 0) {
    return false;
  }
  if (pid == 0) {
    g_tracer = nullptr;
    Outcome check;
    SimResult r = RunNetwork(spec, spill);
    std::ofstream f(side, std::ios::binary);
    WritePod(f, r.setup_s + r.sim_s);
    WritePod(f, r.counts);
    WritePod(f, r.profile);
    WritePod(f, SpillTruth{r.total_true_uj, r.window_true_uj, spec.window_t0,
                           spec.window_t1});
    WriteVec(f, r.truth);
    WriteVec(f, r.slice_s);
    check.Check(r.counts.entries_dropped == 0, "generation dropped entries");
    check.Check(r.entry_nodes.size() == r.counts.entries_logged,
                "generated spill does not hold every logged entry");
    if (prepare) {
      std::vector<LogEntry> all =
          CheckSpill(spill, r.entry_nodes, r.counts.merge_hash, true, &check);
      std::vector<std::vector<LogEntry>> traces = Demux(all, r.entry_nodes, r.truth);
      std::ofstream t(traces_path, std::ios::binary);
      for (size_t i = 0; i < traces.size(); ++i) {
        check.Check(traces[i].size() == r.truth[i].logged,
                    "node " + std::to_string(r.truth[i].id) + " lost entries");
        WriteVec(t, traces[i]);
      }
      t.close();
      check.Check(static_cast<bool>(t), "cannot write " + traces_path);
      WriteInputs(f, MakeReadInputs(all, plan, seed));
    }
    f.close();
    _exit(f && check.correct() ? 0 : 1);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  std::ifstream f(side, std::ios::binary);
  return ReadPod(f, &g->generate_s) && ReadPod(f, &g->counts) &&
         ReadPod(f, &g->profile) && ReadPod(f, &g->truth) && ReadVec(f, &g->nodes) &&
         ReadVec(f, &g->slice_s) && (!prepare || ReadInputsFrom(f, &g->inputs));
}

// --- Metrics ------------------------------------------------------------------

// Every timed end-to-end figure is a BestComposite over the run's rounds;
// set-up is the median.
void EndToEnd(const std::vector<Round>& rounds, const std::vector<double>& setup_s,
              const std::vector<std::vector<double>>& slice_s, const ReadPlan& plan,
              uint64_t events, uint64_t entries, Report* report) {
  auto add = [report](const char* name, double v, const char* unit) {
    report->end_to_end.push_back(Metric{name, v, unit});
  };
  auto best = [&rounds](const std::function<const std::vector<double>&(const Round&)>& f) {
    std::vector<std::vector<double>> pieces;
    for (const Round& r : rounds) {
      pieces.push_back(f(r));
    }
    return BestComposite(pieces);
  };
  add("setup_s", Median(setup_s), "s");
  add("events_per_s", events / BestComposite(slice_s), "1/s");
  add("peak_rss_mb", PeakRssMb(), "MB");
  add("spill_mb", rounds.front().spill_mb, "MB");
  add("ledger_s", best([](const Round& r) -> const auto& { return r.ledger.node_s; }), "s");
  add("decode_entries_per_s",
      static_cast<double>(entries * plan.decodes) /
          best([](const Round& r) -> const auto& { return r.reads.decode_s; }),
      "1/s");
  add("queries_per_s",
      plan.queries[0] / best([](const Round& r) -> const auto& { return r.reads.query_s[0]; }),
      "1/s");
  add("summary_s",
      best([](const Round& r) -> const auto& { return r.reads.summary_s; }) / plan.summaries,
      "s");
}

void PerLayer(const std::vector<Round>& t, const SimCounts& c, const ReadPlan& plan,
              double churn, double notify, const Tracer& tracer, double overhead_ms,
              double overhead_pct, Report* report) {
  auto add = [report](const std::string& name, double v, const char* unit) {
    report->per_layer.push_back(Metric{name, v, unit});
  };
  auto med = [&t](const std::function<double(const Round&)>& f) {
    return Median(Field(t, f));
  };
  double run_ms = med([](const Round& r) { return r.sim.run_ms; });
  add("sim.events", static_cast<double>(c.events), "count");
  add("sim.windows", static_cast<double>(c.windows), "count");
  add("sim.run_ms", run_ms, "ms");
  add("sim.ns_per_event", c.events > 0 ? run_ms * 1e6 / c.events : 0, "ns");
  add("sim.churn_events_per_s", churn, "1/s");
  add("sim.window_p50_us", med([](const Round& r) { return r.sim.window_p50_us; }), "us");
  add("sim.window_p99_us", med([](const Round& r) { return r.sim.window_p99_us; }), "us");
  add("sim.barrier_ms", med([](const Round& r) { return r.sim.barrier_ms; }), "ms");
  add("sim.drain_phase_ms", med([](const Round& r) { return r.sim.drain_phase_ms; }), "ms");

  add("net.frames", static_cast<double>(c.frames), "count");
  add("net.deliveries", static_cast<double>(c.deliveries), "count");
  add("net.deliveries_per_frame", c.frames > 0 ? static_cast<double>(c.deliveries) / c.frames : 0, "ratio");
  add("net.cross_posts", static_cast<double>(c.cross_posts), "count");
  add("net.drain_ms", med([](const Round& r) { return r.sim.drain_ms; }), "ms");
  add("radio.lpl_wakeups", static_cast<double>(c.lpl_wakeups), "count");

  add("core.entries_logged", static_cast<double>(c.entries_logged), "count");
  add("core.entries_per_event", c.events > 0 ? static_cast<double>(c.entries_logged) / c.events : 0, "ratio");
  add("core.entries_dropped", static_cast<double>(c.entries_dropped), "count");
  add("core.charge_flush_visits", static_cast<double>(c.charge_flush_visits), "count");
  add("core.charge_flushes", static_cast<double>(c.charge_flushes), "count");
  add("core.notify_ns", notify, "ns");

  add("apps.construct_ms", med([](const Round& r) { return r.sim.construct_ms; }), "ms");
  add("apps.arena_mb", med([](const Round& r) { return r.sim.arena_mb; }), "MB");
  add("apps.arena_allocations", med([](const Round& r) { return r.sim.arena_allocations; }), "count");

  add("emit.seal_ms", med([](const Round& r) { return r.sim.seal_ms; }), "ms");
  add("emit.flush_ms", med([](const Round& r) { return r.sim.flush_ms; }), "ms");
  add("emit.merge_ms", med([](const Round& r) { return r.sim.merge_ms; }), "ms");
  add("emit.consumer_stall_ms", med([](const Round& r) { return r.sim.consumer_stall_ms; }), "ms");
  add("emit.runs_queued_peak", med([](const Round& r) { return r.sim.runs_queued_peak; }), "count");
  add("emit.peak_buffered", med([](const Round& r) { return r.sim.peak_buffered; }), "count");
  add("emit.tail_ms", med([](const Round& r) { return r.sim.tail_ms; }), "ms");
  add("emit.close_ms", med([](const Round& r) { return r.sim.close_ms; }), "ms");
  add("emit.chunks_sealed", static_cast<double>(c.chunks_sealed), "count");
  add("emit.data_mb", med([](const Round& r) { return r.spill_mb - r.index_mb; }), "MB");
  add("emit.index_mb", med([](const Round& r) { return r.index_mb; }), "MB");
  add("emit.segments", med([](const Round& r) { return r.segments; }), "count");

  add("read.open_ms", med([](const Round& r) { return r.reads.open_ms; }), "ms");
  add("read.decode_1t_ms", med([](const Round& r) { return r.reads.decode_1t_ms; }), "ms");
  add("read.decode_2t_ms",
      med([](const Round& r) { return Sum(r.reads.decode_s); }) * 1e3 / plan.decodes, "ms");
  add("read.linear_ms", med([](const Round& r) { return r.reads.linear_ms; }), "ms");
  add("read.segments_read", med([](const Round& r) { return r.reads.segments_read; }), "count");
  add("read.segments_skipped", med([](const Round& r) { return r.reads.segments_skipped; }),
      "count");
  for (QueryKind kind : kQueryKinds) {
    int k = static_cast<int>(kind);
    std::string name = QueryKindName(kind);
    add("read." + name + "_queries_per_s",
        plan.queries[k] / med([k](const Round& r) { return Sum(r.reads.query_s[k]); }),
        "1/s");
    const ReadResult& first = t.front().reads;
    add("read.selected_per_decoded." + name,
        first.decoded[k] > 0 ? static_cast<double>(first.selected[k]) / first.decoded[k] : 0,
        "ratio");
  }
  add("read.summary_ms",
      med([](const Round& r) { return Sum(r.reads.summary_s); }) * 1e3 / plan.summaries,
      "ms");
  add("read.summary_segments_decoded",
      med([](const Round& r) { return r.reads.summary_segments_decoded; }), "count");

  auto led = [&med](double LedgerResult::*field) {
    return med([field](const Round& r) { return r.ledger.*field; });
  };
  double ledger_s = led(&LedgerResult::seconds);
  const LedgerResult& acc = t.front().ledger;
  add("model.parse_ms", led(&LedgerResult::parse_ms), "ms");
  add("model.regress_ms", led(&LedgerResult::regress_ms), "ms");
  add("model.account_ms", led(&LedgerResult::account_ms), "ms");
  add("model.ledger_ms", led(&LedgerResult::ledger_ms), "ms");
  add("model.entries_per_s", ledger_s > 0 ? acc.entries / ledger_s : 0, "1/s");
  add("model.fit_err_p50", Median(acc.fit_err), "ratio");
  add("model.fit_err_p99", Quantile(acc.fit_err, 0.99), "ratio");
  add("model.energy_err_p50", Median(acc.energy_err), "ratio");
  add("model.energy_err_p99", Quantile(acc.energy_err, 0.99), "ratio");
  add("model.draw_err_p99", Quantile(acc.draw_err, 0.99), "ratio");
  add("model.window_report_ms", med([](const Round& r) { return r.reads.window_report_ms; }),
      "ms");

  double rounds = static_cast<double>(t.size());
  std::map<Layer, double> self = tracer.SelfMs();
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    Layer layer = static_cast<Layer>(i);
    add(std::string(LayerName(layer)) + ".self_ms", self[layer] / rounds, "ms");
  }
  add("trace.spans", tracer.spans().size() / rounds, "count");
  add("trace.overhead_ms", overhead_ms, "ms");
  add("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace

bool RunWorkload(const RunOptions& opt, Outcome* out, Report* report) {
  Profile prof;
  if (!MakeProfile(opt, &prof)) {
    return false;
  }
  namespace fs = std::filesystem;
  const std::string spill = (fs::path(opt.work_dir) / "spill.qnto").string();
  const ReadPlan& plan = prof.reads;
  const size_t rounds = RoundCount(opt, prof);
  Tracer tracer;
  std::vector<Round> traced;
  std::vector<Round> untraced;
  std::vector<double> setup_s;  // Per generation or per round.
  std::vector<std::vector<double>> slice_s;
  SimCounts counts;
  std::string fingerprint;
  ReadInputs inputs;
  SpillTruth spill_truth;
  // spill_query: the generated spill, read back in every round.
  Generated gen;
  NodeTraceFile gen_traces;

  if (prof.generations > 0) {
    // spill_query set-up: generate the spill several times; every
    // generation must produce the same stream.
    const std::string side = (fs::path(opt.work_dir) / "generation.bin").string();
    const std::string traces = (fs::path(opt.work_dir) / "node_traces.bin").string();
    NetSpec gen_spec = prof.net;
    gen_spec.profile = opt.trace;
    for (size_t g = 0; g < prof.generations; ++g) {
      bool last = g + 1 == prof.generations;
      Generated next;
      bool ok = GenerateSpill(gen_spec, plan, opt.seed, spill, traces, side, last, &next);
      out->Check(ok, "spill generation failed");
      if (!ok) {
        return true;
      }
      out->Check(g == 0 || next.counts.merge_hash == gen.counts.merge_hash,
                 "spill generations differ");
      setup_s.push_back(next.generate_s);
      slice_s.push_back(next.slice_s);
      gen = std::move(next);
    }
    counts = gen.counts;
    inputs = std::move(gen.inputs);
    spill_truth = gen.truth;
    out->Check(gen_traces.Open(traces, gen.nodes.size()), "cannot read " + traces);
  }

  double t_rounds = NowS();
  for (size_t round = 0; round < rounds; ++round) {
    bool trace_round = opt.trace && round % 2 == 0;
    g_tracer = trace_round ? &tracer : nullptr;
    Round rec;
    if (prof.generations > 0) {
      rec.ledger = RunLedger(
          [&gen_traces](size_t i) -> const std::vector<LogEntry>& { return gen_traces.Load(i); },
          gen.nodes, false, out);
      RunReads(spill, inputs, plan, spill_truth, &rec.reads, out);
      rec.sim = gen.profile;
      rec.index_mb = gen.profile.index_mb;
      rec.segments = static_cast<double>(gen.counts.spill_segments);
    } else {
      NetSpec spec = prof.net;
      spec.profile = trace_round;
      double setups = 0;
      for (size_t k = 1; k < prof.setups; ++k) {
        setups += RunNetwork(spec, spill, true).setup_s;
      }
      SimResult sim = RunNetwork(spec, spill);
      malloc_trim(0);  // The network is gone; so is its memory.
      rec.setup_s = (setups + sim.setup_s) / prof.setups;
      rec.slice_s = sim.slice_s;
      out->Check(sim.counts.entries_dropped == 0,
                 std::to_string(sim.counts.entries_dropped) + " entries dropped");
      std::vector<node_id_t> nodes;
      std::vector<std::vector<LogEntry>> node_traces;
      rec.index_mb = sim.profile.index_mb;
      rec.segments = static_cast<double>(sim.counts.spill_segments);
      if (prof.net.sharded) {
        nodes = std::move(sim.entry_nodes);
      } else {
        // The paper's offline flow: the nodes' logs merged into one spill.
        node_traces = std::move(sim.node_traces);
        MergedSpill merged = WriteMergedSpill(&node_traces, sim.truth, spill);
        out->Check(merged.ok, "cannot write the merged spill");
        sim.profile.close_ms = merged.close_s * 1e3;
        nodes = std::move(merged.nodes);
        sim.counts.merge_hash = merged.hash;
        rec.index_mb = merged.index_mb;
        rec.segments = static_cast<double>(merged.segments);
      }
      out->Check(nodes.size() == sim.counts.entries_logged,
                 "the spill does not hold every logged entry");
      std::vector<LogEntry> decoded =
          CheckSpill(spill, nodes, sim.counts.merge_hash, false, out);
      // One operation: the simulation and its complete, checked spill.
      out->Attempt(decoded.size() == sim.counts.entries_logged);
      if (prof.net.sharded) {
        node_traces = Demux(decoded, nodes, sim.truth);
      }
      for (size_t i = 0; i < node_traces.size(); ++i) {
        out->Check(node_traces[i].size() == sim.truth[i].logged,
                   "node " + std::to_string(sim.truth[i].id) + " lost entries");
      }
      if (round == 0) {
        inputs = MakeReadInputs(decoded, plan, opt.seed);
      }
      out->Check(decoded.size() == inputs.entries && EntriesDigest(decoded) == inputs.digest,
                 "round " + std::to_string(round) + " decodes differently from round 0");
      decoded = {};
      nodes = {};
      rec.ledger = RunLedger(
          [&node_traces](size_t i) -> const std::vector<LogEntry>& { return node_traces[i]; },
          sim.truth, !prof.net.sharded, out);
      node_traces = {};
      // The reads start from a trimmed heap, as spill_query's do.
      malloc_trim(0);
      RunReads(spill, inputs, plan, spill_truth, &rec.reads, out);
      counts = sim.counts;
      rec.sim = sim.profile;
      setup_s.push_back(rec.setup_s);
      slice_s.push_back(rec.slice_s);
    }
    // One operation: every node's regression, accounting and ledger entry.
    out->Attempt(rec.ledger.nodes_solved == prof.net.motes);
    uint64_t spill_bytes = fs::file_size(spill);
    rec.spill_mb = spill_bytes / kMiB;
    rec.primary_s = Sum(rec.slice_s) + rec.ledger.seconds + Sum(rec.reads.decode_s) +
                    Sum(rec.reads.query_s[0]) + Sum(rec.reads.query_s[1]) +
                    Sum(rec.reads.query_s[2]) + Sum(rec.reads.summary_s);
    std::string fp = RoundFingerprint(counts, rec.ledger, spill_bytes);
    out->Check(round == 0 || fp == fingerprint,
               "round " + std::to_string(round) + " differs from round 0: " + fp);
    fingerprint = fp;
    (trace_round ? traced : untraced).push_back(std::move(rec));
    if (prof.generations == 0) {
      fs::remove(spill);
    }
    // Every round starts from a trimmed heap, as the first one does.
    malloc_trim(0);
  }
  g_tracer = nullptr;
  std::cerr << rounds << " rounds in " << NowS() - t_rounds << " s\n";
  out->Fingerprint("rounds", fingerprint);

  if (!opt.trace) {
    EndToEnd(untraced, setup_s, slice_s, plan, counts.events, inputs.entries, report);
    return true;
  }
  double churn = ChurnEventsPerS(opt.smoke ? 500000 : 5000000);
  double notify = Median({NotifyNs(200000), NotifyNs(200000), NotifyNs(200000)});
  auto primary = [](const std::vector<Round>& rs) {
    return Median(Field(rs, [](const Round& r) { return r.primary_s; }));
  };
  double traced_s = primary(traced);
  double untraced_s = primary(untraced);
  PerLayer(traced, counts, plan, churn, notify, tracer, (traced_s - untraced_s) * 1e3,
           untraced_s > 0 ? (traced_s / untraced_s - 1) * 100 : 0, report);
  if (!opt.spans_path.empty()) {
    out->Check(tracer.Write(opt.spans_path), "cannot write " + opt.spans_path);
  }
  return true;
}

}  // namespace perfbench
