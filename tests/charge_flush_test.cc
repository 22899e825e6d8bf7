// The fused worker-side charge flush: one dirty pass per mote-window.
//
// A streamed sharded run flushes the batched CPU self-charge inside the
// per-shard pre-barrier seal pass (ShardRunBuilder::BuildRun with
// flush_charges), reusing the seal dirty list as the unified dirty list;
// a batch-collected run flushes on the serial dirty-list barrier hook.
// The contract under test is fourfold:
//  * Equivalence — the fused flush reproduces the serial-hook flush and
//    the deleted full per-window sweep event for event: equal
//    merged-trace hashes, equal executed-event counts, at 1/2/4 threads,
//    on both topologies. The serial hook is compared live (on batch
//    runs); what the streamed serial hook and the full sweep produced
//    before they were deleted is pinned as constants.
//  * One pass, not two — fused and serial-hook runs visit exactly the
//    same dirty loggers (charge_flush_visits equal), and every visit that
//    owed cycles handed them over (charge_flushes equal across all the
//    flushes, full sweep included — its extra visits were zero-pending
//    no-ops).
//  * Order — a shard's fused pass flushes in ascending node-id order,
//    the historical sweep's per-queue order.
//  * Unified dirty list — under batch charging the log-dirty and
//    charge-dirty hooks fire together, once per window, on the first
//    Append; the fused path's reuse of the seal list rests on exactly
//    that coincidence.

#include <gtest/gtest.h>

#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/scale_network.h"
#include "src/core/logger.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {
namespace {

class FakeClock : public Clock {
 public:
  Tick Now() const override { return now; }
  Tick now = 0;
};

class FakeCounter : public EnergyCounter {
 public:
  uint32_t ReadPulses() override { return pulses; }
  uint32_t pulses = 0;
};

// Records which logger's charge arrived, in order — the observable the
// flush-order test pins.
class RecordingChargeHook : public CpuChargeHook {
 public:
  RecordingChargeHook(std::vector<uint32_t>* order, uint32_t id)
      : order_(order), id_(id) {}
  void ChargeCycles(Cycles cycles) override {
    order_->push_back(id_);
    total += cycles;
  }
  Cycles total = 0;

 private:
  std::vector<uint32_t>* order_;
  uint32_t id_;
};

// --- Flush equivalence -------------------------------------------------------

struct FlushRun {
  uint64_t hash = 0;  // Streamed: the merger's online fingerprint.
  uint64_t visits = 0;
  uint64_t windows = 0;
  uint64_t flushes = 0;  // Nonzero-pending FlushCpuCharge calls.
  uint64_t executed = 0;
  bool fused = false;
};

// What the deleted flushes produced on the 128-mote, 1 s workload below
// (streamed, 8 shards): the serial dirty-list hook on a streamed run and
// the full per-window sweep of every mote. Both gave the same hash,
// executed events, windows and flushes; they differ only in visits.
struct PinnedFlush {
  uint64_t hash;
  uint64_t executed;
  uint64_t windows;
  uint64_t flushes;
  uint64_t serial_hook_visits;
  uint64_t sweep_visits;  // windows × 128, exactly.
};
constexpr PinnedFlush kPinnedChain = {0xd1b29c4685849863ull, 15150, 496,
                                      7635, 7635, 63488};
constexpr PinnedFlush kPinnedGrid = {0x0514f8a8d5a22297ull, 13655, 257,
                                     4245, 4245, 32896};
static_assert(kPinnedChain.sweep_visits == kPinnedChain.windows * 128);
static_assert(kPinnedGrid.sweep_visits == kPinnedGrid.windows * 128);

const PinnedFlush& Pinned(ScaleTopology topology) {
  return topology == ScaleTopology::kGrid ? kPinnedGrid : kPinnedChain;
}

ScaleNetworkConfig FlushConfig(ScaleTopology topology) {
  ScaleNetworkConfig cfg;
  cfg.motes = 128;
  cfg.topology = topology;
  if (topology == ScaleTopology::kGrid) {
    cfg.sinks = 4;
  }
  cfg.batch_log_charging = true;
  return cfg;
}

ShardedSimulator::Config SimConfig(size_t threads) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  return sim_cfg;
}

// Streamed run: the flush is fused into the shard workers' seal pass.
FlushRun RunStreamed(ScaleTopology topology, size_t threads) {
  ShardedSimulator sim(SimConfig(threads));
  MediumFabric fabric(&sim);
  StreamingTraceMerger merger;
  EmissionPipeline emission(&merger);
  ScaleNetworkConfig cfg = FlushConfig(topology);
  cfg.emission_pipeline = &emission;
  cfg.log_capacity = 1024;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(1.0));
  net.SealAllChunks();
  merger.Finish();
  FlushRun r;
  r.hash = merger.hash();
  r.visits = net.charge_flush_visits();
  r.windows = net.charge_flush_windows();
  r.flushes = net.charge_flushes();
  r.executed = sim.executed_count();
  r.fused = net.fused_charge_flush();
  return r;
}

// Batch-collected run (no pipeline, so no builders): the flush is the
// serial dirty-list hook, and the hash is the post-hoc batch merge — the
// reference the streamed hashes must equal.
FlushRun RunBatch(ScaleTopology topology, size_t threads) {
  ShardedSimulator sim(SimConfig(threads));
  MediumFabric fabric(&sim);
  ScaleNetwork net(&sim, &fabric, FlushConfig(topology));
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(1.0));
  FlushRun r;
  r.hash = MergedTraceHash(MergeTraces(CollectNodeTraces(net)));
  r.visits = net.charge_flush_visits();
  r.windows = net.charge_flush_windows();
  r.flushes = net.charge_flushes();
  r.executed = sim.executed_count();
  r.fused = net.fused_charge_flush();
  return r;
}

class ChargeFlushPathTest : public ::testing::TestWithParam<ScaleTopology> {};

TEST_P(ChargeFlushPathTest, FusedMatchesSerialHookAcrossThreadCounts) {
  ScaleTopology topo = GetParam();
  const PinnedFlush& pinned = Pinned(topo);
  FlushRun serial = RunBatch(topo, 1);
  EXPECT_FALSE(serial.fused);
  EXPECT_GT(serial.visits, 0u);
  // The live serial hook still does what it did on streamed runs.
  EXPECT_EQ(serial.hash, pinned.hash);
  EXPECT_EQ(serial.executed, pinned.executed);
  EXPECT_EQ(serial.windows, pinned.windows);
  EXPECT_EQ(serial.visits, pinned.serial_hook_visits);
  EXPECT_EQ(serial.flushes, pinned.flushes);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    FlushRun fused = RunStreamed(topo, threads);
    EXPECT_TRUE(fused.fused) << "threads " << threads;
    // Same simulation, event for event and byte for byte.
    EXPECT_EQ(fused.executed, serial.executed) << "threads " << threads;
    EXPECT_EQ(fused.hash, serial.hash) << "threads " << threads;
    // One pass per dirty mote per window, not two: the fused walk visits
    // exactly the loggers the serial hook's charge-dirty lists held (the
    // unified-dirty-list coincidence), and every visit flushed.
    EXPECT_EQ(fused.windows, serial.windows) << "threads " << threads;
    EXPECT_EQ(fused.visits, serial.visits) << "threads " << threads;
    EXPECT_EQ(fused.flushes, serial.flushes) << "threads " << threads;
    EXPECT_EQ(fused.flushes, fused.visits) << "threads " << threads;
  }
}

TEST_P(ChargeFlushPathTest, LegacySweepMatchesFusedHashAndFlushes) {
  ScaleTopology topo = GetParam();
  const PinnedFlush& sweep = Pinned(topo);
  FlushRun fused = RunStreamed(topo, 2);
  EXPECT_EQ(fused.hash, sweep.hash);
  EXPECT_EQ(fused.executed, sweep.executed);
  EXPECT_EQ(fused.windows, sweep.windows);
  // The sweep visited every mote every window; only the visits that owed
  // cycles charged anything, and those equal the fused flushes.
  EXPECT_EQ(fused.flushes, sweep.flushes);
  // The fused list stays sparse: that is what the sweep's extra visits
  // were paying for.
  EXPECT_LT(fused.visits, sweep.sweep_visits / 4);
}

TEST_P(ChargeFlushPathTest, StreamedFusedMatchesBatchCollection) {
  ScaleTopology topo = GetParam();
  uint64_t batch = RunBatch(topo, 2).hash;
  for (size_t threads : {size_t{1}, size_t{2}}) {
    FlushRun fused = RunStreamed(topo, threads);
    EXPECT_EQ(fused.hash, batch) << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ChargeFlushPathTest,
                         ::testing::Values(ScaleTopology::kChain,
                                           ScaleTopology::kGrid),
                         [](const auto& info) {
                           return info.param == ScaleTopology::kGrid
                                      ? "Grid"
                                      : "Chain";
                         });

// --- Fused pass order --------------------------------------------------------

TEST(FusedFlushOrderTest, FlushesInAscendingNodeIdOrder) {
  // Loggers marked dirty in scrambled order must flush in ascending node
  // id — the historical sweep's per-queue order, which is what makes the
  // fused pass event-identical to it.
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  std::vector<uint32_t> flush_order;
  constexpr uint32_t kNodes[] = {11, 3, 7, 1, 9};
  std::vector<std::unique_ptr<QuantoLogger>> loggers;
  std::vector<std::unique_ptr<RecordingChargeHook>> hooks;
  for (uint32_t node : kNodes) {
    auto logger = std::make_unique<QuantoLogger>(&clock, &meter, 16);
    hooks.push_back(std::make_unique<RecordingChargeHook>(&flush_order, node));
    logger->SetCpuChargeHook(hooks.back().get());
    logger->SetChargeBatching(true);
    logger->SetSink(&builder, node);
    logger->SetChunkPool(&builder.pool());
    logger->SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
    loggers.push_back(std::move(logger));
  }
  clock.now = 10;
  for (auto& logger : loggers) {
    logger->Append(LogEntryType::kPowerState, 0, 1);  // Marks dirty, accrues.
  }
  EXPECT_EQ(builder.dirty_count(), 5u);

  EXPECT_EQ(builder.BuildRun(100, /*flush_charges=*/true), 5u);
  EXPECT_EQ(flush_order, (std::vector<uint32_t>{1, 3, 7, 9, 11}));
  EXPECT_EQ(builder.charge_flush_visits(), 5u);
  for (auto& logger : loggers) {
    EXPECT_EQ(logger->pending_charge(), 0u);
    EXPECT_EQ(logger->charge_flushes(), 1u);
  }
  // The flush precedes the seal in the same visit, so the entries the
  // pass sealed are untouched by it: one entry per logger, node-sorted.
  std::vector<MergedEntry> run = builder.TakeRun();
  ASSERT_EQ(run.size(), 5u);
  for (size_t i = 1; i < run.size(); ++i) {
    EXPECT_LT(run[i - 1].node, run[i].node);
  }
}

TEST(FusedFlushOrderTest, UnfusedBuildRunLeavesChargesPending) {
  // The tail flush (SealAllChunks) passes flush_charges=false: charges
  // stay pending, matching the serial flush, which never runs at the
  // tail either — visit parity depends on it.
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  std::vector<uint32_t> flush_order;
  RecordingChargeHook hook(&flush_order, 1);
  QuantoLogger logger(&clock, &meter, 16);
  logger.SetCpuChargeHook(&hook);
  logger.SetChargeBatching(true);
  logger.SetSink(&builder, 1);
  logger.SetChunkPool(&builder.pool());
  logger.SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
  clock.now = 10;
  logger.Append(LogEntryType::kPowerState, 0, 1);
  Cycles pending = logger.pending_charge();
  EXPECT_GT(pending, 0u);

  EXPECT_EQ(builder.BuildRun(~Tick{0}), 1u);
  EXPECT_TRUE(flush_order.empty());
  EXPECT_EQ(logger.pending_charge(), pending);
  EXPECT_EQ(builder.charge_flush_visits(), 0u);
  EXPECT_EQ(logger.charge_flushes(), 0u);
}

// --- Unified dirty list ------------------------------------------------------

TEST(UnifiedDirtyListTest, BothHooksFireTogetherOncePerWindow) {
  // Under batch charging the first Append of a window sets both dirty
  // bits, and both clear once per window (SealToSink / FlushCpuCharge) —
  // so the charge-dirty set always equals the log-dirty set. This is the
  // coincidence that lets the fused pass drop the charge-dirty hook and
  // reuse the seal list as the unified dirty list.
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  QuantoLogger logger(&clock, &meter, 16);
  logger.SetChargeBatching(true);
  logger.SetSink(&builder, 1);
  logger.SetChunkPool(&builder.pool());
  int log_dirty_fires = 0;
  int charge_dirty_fires = 0;
  logger.SetDirtyHook(
      [](void* ctx, QuantoLogger*) { ++*static_cast<int*>(ctx); },
      &log_dirty_fires);
  logger.SetChargeDirtyHook(
      [](void* ctx, QuantoLogger*) { ++*static_cast<int*>(ctx); },
      &charge_dirty_fires);

  // Window 1: three appends, one firing each.
  clock.now = 10;
  for (int i = 0; i < 3; ++i) {
    logger.Append(LogEntryType::kPowerState, 0, i);
    EXPECT_EQ(log_dirty_fires, 1);
    EXPECT_EQ(charge_dirty_fires, 1);
  }
  EXPECT_TRUE(logger.dirty());
  EXPECT_GT(logger.pending_charge(), 0u);

  // The window's once-per-mote visit: flush, then seal.
  logger.FlushCpuCharge();
  logger.SealToSink();
  EXPECT_FALSE(logger.dirty());
  EXPECT_EQ(logger.pending_charge(), 0u);

  // Window 2: the first Append re-arms both, together.
  clock.now = 20;
  logger.Append(LogEntryType::kPowerState, 0, 9);
  EXPECT_EQ(log_dirty_fires, 2);
  EXPECT_EQ(charge_dirty_fires, 2);
}

}  // namespace
}  // namespace quanto
