// The simulation and analysis phases the workloads are assembled from.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "perfbench/src/bench.h"
#include "src/analysis/accounting.h"
#include "src/analysis/emission_pipeline.h"
#include "src/analysis/network_ledger.h"
#include "src/analysis/streaming.h"
#include "src/analysis/trace.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/mote.h"
#include "src/apps/scale_network.h"
#include "src/hw/power_model.h"
#include "src/hw/sinks.h"
#include "src/sim/event_queue.h"
#include "src/sim/sharded_sim.h"

namespace perfbench {

using namespace quanto;  // NOLINT: this file is a client of the whole library.

namespace {

double Ms(double seconds) { return seconds * 1e3; }

double SumUs(const std::vector<uint32_t>& samples) {
  double s = 0;
  for (uint32_t v : samples) {
    s += v;
  }
  return s / 1e3;  // ms
}

std::vector<double> AsDoubles(const std::vector<uint32_t>& samples) {
  return std::vector<double>(samples.begin(), samples.end());
}

double NetworkEnergy(ScaleNetwork& net) {
  double sum = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    sum += net.mote(i).meter().TrueEnergy();
  }
  return sum;
}

void ReadTruth(ScaleNetwork& net, SimResult* r) {
  r->truth.resize(net.size());
  for (size_t i = 0; i < net.size(); ++i) {
    Mote& m = net.mote(i);
    r->truth[i] = NodeTruth{m.id(), m.meter().TrueEnergy(), m.queue().Now(),
                            m.power_model().TotalPower(),
                            m.logger().entries_logged()};
    r->total_true_uj += r->truth[i].true_uj;
  }
}

ScaleNetworkConfig NetworkConfig(const NetSpec& spec) {
  ScaleNetworkConfig cfg;
  cfg.motes = spec.motes;
  cfg.topology = ScaleTopology::kGrid;
  cfg.sinks = 4;
  cfg.log_capacity = spec.log_capacity;
  return cfg;
}

void CommonCounts(const ScaleNetwork& net, SimCounts* c) {
  c->lpl_wakeups = net.lpl_wakeups();
  c->entries_logged = net.entries_logged();
  c->entries_dropped = net.entries_dropped();
  c->charge_flush_visits = net.charge_flush_visits();
  c->charge_flushes = net.charge_flushes();
  c->chunks_sealed = net.chunks_sealed();
}

SimResult RunSharded(const NetSpec& spec, const std::string& spill_path,
                     bool setup_only) {
  SimResult r;
  std::vector<double> marks;
  Tick next_mark = 0;  // 0: not yet measuring.
  ScaleNetworkConfig cfg = NetworkConfig(spec);
  cfg.batch_log_charging = true;
  cfg.profile_barrier = spec.profile;

  double t_setup = NowS();
  int32_t construct = g_tracer != nullptr
                          ? g_tracer->Begin("ScaleNetwork::ScaleNetwork", Layer::kApps)
                          : -1;
  ShardedSimulator::Config sim_cfg;
  sim_cfg.threads = spec.threads;
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);
  sim.EnableBarrierProfiling(spec.profile);
  fabric.EnableDrainProfiling(spec.profile);
  StreamingTraceMerger merger;
  FileTraceSink::Options sink_opts;
  sink_opts.segment_entries = cfg.segment_entries;
  sink_opts.write_index = true;
  FileTraceSink spill(spill_path, sink_opts);
  // The spill stores no logging node; the benchmark records it beside the
  // spill so it can check the spill and rebuild per-node logs.
  std::vector<node_id_t>* nodes = &r.entry_nodes;
  nodes->reserve(spec.motes * 640);
  merger.SetEmit([&spill, nodes](const MergedEntry& m) {
    spill.Append(m.entry);
    nodes->push_back(m.node);
  });
  // Declared after the merger and spill: its consumer thread joins first.
  EmissionPipeline emission(&merger);
  cfg.emission_pipeline = &emission;
  auto net = std::make_unique<ScaleNetwork>(&sim, &fabric, cfg);
  // Registered after the network's own hooks; it only reads the clock.
  sim.AddBarrierHook([&marks, &next_mark](Tick window_end) {
    if (next_mark != 0 && window_end >= next_mark) {
      marks.push_back(NowS());
      while (next_mark <= window_end) {
        next_mark += kSliceTime;
      }
    }
  });
  double t_built = NowS();
  if (construct >= 0) {
    g_tracer->End(construct);
  }
  {
    ScopedSpan s("ScaleNetwork::PowerUp", Layer::kApps);
    net->PowerUp();
  }
  {
    ScopedSpan s("ShardedSimulator::RunFor", Layer::kSim);
    sim.RunFor(Milliseconds(5));
  }
  {
    ScopedSpan s("ScaleNetwork::StartApps", Layer::kApps);
    net->StartApps();
  }
  double t_start = NowS();
  r.setup_s = t_start - t_setup;
  r.profile.construct_ms = Ms(t_built - t_setup);
  r.profile.arena_mb = net->construction_arena().bytes_reserved() / 1048576.0;
  r.profile.arena_allocations = static_cast<double>(net->construction_arena().allocations());
  if (setup_only) {
    return r;
  }

  uint64_t events0 = sim.executed_count();
  uint64_t windows0 = sim.windows_run();
  Tick end = sim.Now() + spec.horizon;
  next_mark = sim.Now() + kSliceTime;
  {
    ScopedSpan s("ShardedSimulator::RunFor", Layer::kSim);
    if (spec.window_t1 > spec.window_t0) {
      sim.RunUntil(spec.window_t0);
      r.window_true_uj = -NetworkEnergy(*net);
      sim.RunUntil(spec.window_t1);
      r.window_true_uj += NetworkEnergy(*net);
    }
    sim.RunUntil(end);
  }
  double t_ran = NowS();
  {
    ScopedSpan s("ScaleNetwork::SealAllChunks", Layer::kEmit);
    net->SealAllChunks();
  }
  {
    ScopedSpan s("StreamingTraceMerger::Finish", Layer::kEmit);
    merger.Finish();
  }
  double t_finished = NowS();
  bool closed = false;
  {
    ScopedSpan s("FileTraceSink::Close", Layer::kEmit);
    closed = spill.Close();
  }
  double t_closed = NowS();
  r.sim_s = t_closed - t_start;
  double prev = t_start;
  for (double m : marks) {
    r.slice_s.push_back(m - prev);
    prev = m;
  }
  r.slice_s.push_back(t_closed - prev);
  r.profile.run_ms = Ms(t_ran - t_start);
  r.profile.tail_ms = Ms(t_finished - t_ran);
  r.profile.close_ms = Ms(t_closed - t_finished);

  SimCounts& c = r.counts;
  c.events = sim.executed_count() - events0;
  c.windows = sim.windows_run() - windows0;
  c.frames = fabric.packets_sent();
  c.deliveries = fabric.packets_delivered();
  c.cross_posts = fabric.cross_posts();
  CommonCounts(*net, &c);
  c.merge_hash = closed ? merger.hash() : 0;
  c.spill_segments = spill.segments_written();

  SimProfile& p = r.profile;
  p.consumer_stall_ms = emission.consumer_stall_us() / 1e3;
  p.runs_queued_peak = static_cast<double>(emission.runs_queued_peak());
  p.peak_buffered = static_cast<double>(merger.peak_buffered());
  p.index_mb = spill.index_bytes_written() / 1048576.0;
  if (spec.profile) {
    p.window_p50_us = Median(AsDoubles(sim.window_us_samples()));
    p.window_p99_us = Quantile(AsDoubles(sim.window_us_samples()), 0.99);
    p.barrier_ms = SumUs(sim.barrier_us_samples());
    p.drain_phase_ms = SumUs(sim.drain_phase_us_samples());
    p.drain_ms = SumUs(fabric.drain_us_samples());
    p.seal_ms = SumUs(net->seal_us_samples());
    p.flush_ms = SumUs(net->flush_us_samples());
    p.merge_ms = SumUs(net->merge_us_samples());
  }
  ReadTruth(*net, &r);
  return r;
}

SimResult RunInRam(const NetSpec& spec, bool setup_only) {
  SimResult r;
  ScaleNetworkConfig cfg = NetworkConfig(spec);
  double t_setup = NowS();
  int32_t construct = g_tracer != nullptr
                          ? g_tracer->Begin("ScaleNetwork::ScaleNetwork", Layer::kApps)
                          : -1;
  EventQueue queue;
  Medium medium(&queue);
  auto net = std::make_unique<ScaleNetwork>(&queue, &medium, cfg);
  double t_built = NowS();
  if (construct >= 0) {
    g_tracer->End(construct);
  }
  {
    ScopedSpan s("ScaleNetwork::PowerUp", Layer::kApps);
    net->PowerUp();
  }
  {
    ScopedSpan s("EventQueue::RunFor", Layer::kSim);
    queue.RunFor(Milliseconds(5));
  }
  {
    ScopedSpan s("ScaleNetwork::StartApps", Layer::kApps);
    net->StartApps();
  }
  double t_start = NowS();
  r.setup_s = t_start - t_setup;
  r.profile.construct_ms = Ms(t_built - t_setup);
  r.profile.arena_mb = net->construction_arena().bytes_reserved() / 1048576.0;
  r.profile.arena_allocations = static_cast<double>(net->construction_arena().allocations());
  if (setup_only) {
    return r;
  }
  uint64_t events0 = queue.executed_count();
  {
    // One queue: running in slices executes exactly the same events.
    ScopedSpan s("EventQueue::RunFor", Layer::kSim);
    double prev = t_start;
    for (Tick done = 0; done < spec.horizon; done += kSliceTime) {
      queue.RunFor(std::min(kSliceTime, spec.horizon - done));
      double now = NowS();
      r.slice_s.push_back(now - prev);
      prev = now;
    }
  }
  r.sim_s = NowS() - t_start;
  r.profile.run_ms = Ms(r.sim_s);

  SimCounts& c = r.counts;
  c.events = queue.executed_count() - events0;
  c.frames = medium.packets_sent();
  c.deliveries = medium.packets_delivered();
  CommonCounts(*net, &c);
  ReadTruth(*net, &r);
  r.node_traces.resize(net->size());
  for (size_t i = 0; i < net->size(); ++i) {
    r.node_traces[i] = net->mote(i).logger().Trace();
  }
  return r;
}

}  // namespace

SimResult RunNetwork(const NetSpec& spec, const std::string& spill_path,
                     bool setup_only) {
  return spec.sharded ? RunSharded(spec, spill_path, setup_only)
                      : RunInRam(spec, setup_only);
}

MergedSpill WriteMergedSpill(std::vector<std::vector<LogEntry>>* traces,
                             const std::vector<NodeTruth>& truth,
                             const std::string& path) {
  MergedSpill out;
  std::vector<NodeTrace> node_traces(traces->size());
  for (size_t i = 0; i < traces->size(); ++i) {
    node_traces[i] = NodeTrace{truth[i].id, std::move((*traces)[i])};
  }
  std::vector<MergedEntry> merged;
  {
    ScopedSpan s("MergeTraces", Layer::kEmit);
    merged = MergeTraces(node_traces);
  }
  for (size_t i = 0; i < traces->size(); ++i) {
    (*traces)[i] = std::move(node_traces[i].entries);
  }
  out.hash = MergedTraceHash(merged);
  FileTraceSink::Options opts;
  opts.write_index = true;
  FileTraceSink sink(path, opts);
  out.nodes.reserve(merged.size());
  for (const MergedEntry& m : merged) {
    sink.Append(m.entry);
    out.nodes.push_back(m.node);
  }
  merged = {};
  double t_close = NowS();
  {
    ScopedSpan s("FileTraceSink::Close", Layer::kEmit);
    out.ok = sink.Close();
  }
  out.close_s = NowS() - t_close;
  out.index_mb = sink.index_bytes_written() / 1048576.0;
  out.segments = sink.segments_written();
  return out;
}

std::vector<std::vector<LogEntry>> Demux(const std::vector<LogEntry>& entries,
                                         const std::vector<node_id_t>& nodes,
                                         const std::vector<NodeTruth>& truth) {
  ScopedSpan span("Demux", Layer::kBench);
  // Mote ids are 1..n in mote order.
  std::vector<std::vector<LogEntry>> traces(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    traces[i].reserve(truth[i].logged);
  }
  for (size_t i = 0; i < entries.size() && i < nodes.size(); ++i) {
    size_t idx = nodes[i] - 1;
    if (idx < traces.size()) {
      traces[idx].push_back(entries[i]);
    }
  }
  return traces;
}

namespace {

// The benchmark's own reading of which regression columns Section 2.5 can
// tell apart: maximal constant-state intervals grouped by state vector,
// groups shorter than the pipeline's 50 us floor dropped; columns with the
// same support are one group (only their sum is identifiable) and columns
// present in every group are indistinguishable from the constant.
struct ColumnGroups {
  std::vector<std::vector<std::pair<SinkId, powerstate_t>>> groups;
  std::vector<double> seconds;  // Time each group's columns are active.
};

ColumnGroups IdentifiableGroups(const std::vector<LogEntry>& trace) {
  using States = std::array<powerstate_t, kSinkCount>;
  States states;
  for (size_t s = 0; s < kSinkCount; ++s) {
    states[s] = BaselineState(static_cast<SinkId>(s));
  }
  std::map<States, Tick> time_by_states;
  bool open = false;
  Tick open_time = 0;
  for (const LogEntry& e : trace) {
    if (EntryType(e) != LogEntryType::kPowerState) {
      continue;
    }
    Tick t = e.time;
    if (open && t > open_time) {
      time_by_states[states] += t - open_time;
      open_time = t;
    } else if (!open) {
      open = true;
      open_time = t;
    }
    if (e.res_id < kSinkCount) {
      states[e.res_id] = static_cast<powerstate_t>(e.payload);
    }
  }
  std::map<std::pair<SinkId, powerstate_t>, std::vector<size_t>> support;
  std::map<std::pair<SinkId, powerstate_t>, double> active_s;
  size_t kept = 0;
  for (const auto& [vec, time] : time_by_states) {
    if (time < Microseconds(50)) {
      continue;
    }
    for (size_t s = 0; s < kSinkCount; ++s) {
      SinkId sink = static_cast<SinkId>(s);
      if (vec[s] != BaselineState(sink)) {
        support[{sink, vec[s]}].push_back(kept);
        active_s[{sink, vec[s]}] += TicksToSeconds(time);
      }
    }
    ++kept;
  }
  std::map<std::vector<size_t>, size_t> group_of;
  ColumnGroups out;
  for (const auto& [col, rows] : support) {
    if (rows.size() == kept) {
      continue;  // Always on: part of the constant.
    }
    auto it = group_of.find(rows);
    if (it == group_of.end()) {
      it = group_of.emplace(rows, out.groups.size()).first;
      out.groups.emplace_back();
      out.seconds.push_back(active_s[col]);
    }
    out.groups[it->second].push_back(col);
  }
  return out;
}

}  // namespace

LedgerResult RunLedger(const TraceSource& traces,
                       const std::vector<NodeTruth>& truth,
                       bool check_accuracy, Outcome* out) {
  LedgerResult r;
  // Every ScaleNetwork mote draws the Table 1 defaults.
  PowerModel table1;
  NetworkLedger ledger;
  double node_sum = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const std::vector<LogEntry>& trace = traces(i);
    r.entries += trace.size();
    double t0 = NowS();
    StreamingPipeline pipe;
    {
      ScopedSpan s("StreamingPipeline::Add", Layer::kModel);
      pipe.AddAll(trace);
    }
    PipelineResult fit;
    {
      ScopedSpan s("StreamingPipeline::Solve", Layer::kModel);
      fit = pipe.Solve();
    }
    double t1 = NowS();
    std::vector<TraceEvent> events;
    {
      ScopedSpan s("TraceParser::Parse", Layer::kModel);
      events = TraceParser::Parse(trace);
    }
    double t2 = NowS();
    if (!fit.ok) {
      out->Check(false, "node " + std::to_string(truth[i].id) +
                            " regression failed: " + fit.error);
      continue;
    }
    const std::vector<RegressionColumn>& columns = pipe.columns();
    ActivityAccounts accounts;
    {
      ScopedSpan s("ActivityAccountant::Run", Layer::kModel);
      ActivityAccountant::Options opts;
      opts.constant_power = fit.coefficients[columns.size() - 1];
      ActivityAccountant accountant(PowerFromColumns(columns, fit.coefficients),
                                    opts);
      accounts = accountant.Run(events, truth[i].id);
    }
    double t3 = NowS();
    {
      ScopedSpan s("NetworkLedger::AddNode", Layer::kModel);
      ledger.AddNode(truth[i].id, accounts);
    }
    double t4 = NowS();
    r.regress_ms += Ms(t1 - t0);
    r.parse_ms += Ms(t2 - t1);
    r.account_ms += Ms(t3 - t2);
    r.ledger_ms += Ms(t4 - t3);
    r.node_s.push_back(t4 - t0);
    r.seconds += t4 - t0;
    ++r.nodes_solved;

    // Accuracy against the simulator's exact meters and draws. Every power
    // change is logged, so the draw after the last entry is the node's
    // final one: the exact energy up to the last entry follows from the
    // meter's reading at the end.
    double accounted = accounts.TotalEnergy();
    node_sum += accounted;
    r.fit_err.push_back(fit.relative_error);
    const NodeTruth& t = truth[i];
    double exact = t.true_uj - t.end_power_uw * TicksToSeconds(t.end_time - trace.back().time);
    double energy_err = std::fabs(accounted - exact) / exact;
    r.energy_err.push_back(energy_err);
    out->Check(!check_accuracy || energy_err <= kEnergyTolerance,
               "node " + std::to_string(truth[i].id) + " accounted energy off by " +
                   std::to_string(energy_err * 100) + "%");
    std::map<std::pair<SinkId, powerstate_t>, double> coef;
    for (size_t c = 0; c + 1 < columns.size(); ++c) {
      coef[{columns[c].sink, columns[c].state}] = fit.coefficients[c];
    }
    ColumnGroups groups = IdentifiableGroups(trace);
    for (size_t g = 0; g < groups.groups.size(); ++g) {
      bool radio = false;
      double est = 0;
      double want = 0;
      for (const auto& [sink, state] : groups.groups[g]) {
        radio |= sink == kSinkRadioRx || sink == kSinkRadioTx;
        est += coef[{sink, state}];
        want += (table1.ActualCurrent(sink, state) -
                 table1.ActualCurrent(sink, BaselineState(sink))) *
                table1.supply();
      }
      // A draw seen for fewer than 1000 iCount pulses is not resolved
      // better than the pulse quantization allows; only larger ones count.
      if (!radio || want * groups.seconds[g] < 1000 * 8.33) {
        continue;
      }
      double err = std::fabs(est - want) / want;
      r.draw_err.push_back(err);
      out->Check(!check_accuracy || err <= kDrawTolerance,
                 "node " + std::to_string(truth[i].id) + " radio draw off by " +
                     std::to_string(err * 100) + "% over " +
                     std::to_string(groups.seconds[g]) + " s");
    }
  }
  double total = ledger.TotalEnergy();
  out->Check(std::fabs(total - node_sum) <= 1e-9 * std::max(1.0, node_sum),
             "ledger total differs from the sum of node totals");
  return r;
}

double ChurnEventsPerS(uint64_t target) {
  // The event mix of bench_scale_multihop's core churn: mostly short
  // frame/SPI delays, a tail of long LPL timers, due-now dispatches and
  // ~12% cancellations, over a stable pending population.
  struct Churn {
    EventQueue queue;
    std::vector<EventQueue::EventId> ids = std::vector<EventQueue::EventId>(512);
    std::vector<Tick> delays = std::vector<Tick>(4096);
    std::vector<uint16_t> victims = std::vector<uint16_t>(4096);
    size_t next = 0;
    size_t mix = 0;
    void Spawn() {
      Tick d = delays[mix++ & 4095];
      ids[next++ & 511] = queue.ScheduleAfter(d, [this] { Fire(); });
    }
    void Fire() {
      Spawn();
      if ((mix & 7) == 0 && queue.Cancel(ids[victims[mix & 4095]])) {
        Spawn();
      }
    }
  };
  Churn churn;
  uint64_t x = 0xBEEF5EED;
  for (size_t i = 0; i < 4096; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t pick = (x >> 33) % 100;
    uint64_t r = x >> 17;
    churn.delays[i] = pick < 15 ? 0 : pick < 85 ? 20 + r % 181 : 50000 + r % 150001;
    churn.victims[i] = static_cast<uint16_t>((x >> 40) % 512);
  }
  for (int i = 0; i < 300; ++i) {
    churn.Spawn();
  }
  double t0 = NowS();
  while (churn.queue.executed_count() < target) {
    churn.queue.RunFor(100000);
  }
  return churn.queue.executed_count() / (NowS() - t0);
}

double NotifyNs(size_t calls) {
  // One radio-less mote: every set fans out through the logger, the power
  // model and the meter, the instrumentation path of every event.
  EventQueue queue;
  Mote::Config cfg;
  cfg.with_oscilloscope = false;
  cfg.meter.record_history = false;
  cfg.log_capacity = calls + 16;
  Mote mote(&queue, nullptr, cfg);
  LedDriver& led = mote.led(0);
  act_t a = mote.Label(1);
  act_t b = mote.Label(2);
  double t0 = NowS();
  for (size_t i = 0; i < calls / 2; ++i) {
    led.activity().set((i & 1) != 0 ? a : b);
    led.power_state().set((i & 1) != 0 ? kLedOn : kLedOff);
  }
  return (NowS() - t0) * 1e9 / static_cast<double>(calls);
}

}  // namespace perfbench
