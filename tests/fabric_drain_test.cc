// The parallel fabric drain: the destination-owned k-way lane merge must
// reproduce, at 1/2/4 worker threads, what the single-threaded
// gather + global stable_sort drain it replaced produced — byte-identical
// merged traces and identical wakeup counters, pinned below as constants
// recorded from that drain — while the lane-skip fast path and the
// per-window drain profiling actually engage.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/analysis/trace_merge.h"
#include "src/apps/scale_network.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {
namespace {

struct DrainRun {
  uint64_t executed = 0;
  uint64_t cross_posts = 0;
  uint64_t scheduled_wakeups = 0;
  uint64_t skipped_wakeups = 0;
  uint64_t packets_delivered = 0;
  uint64_t merge_hash = 0;
  size_t merged_entries = 0;
};

// What the serial gather + stable_sort drain produced on the two
// workloads below (1 thread), before it was deleted.
constexpr DrainRun kSerialDrainGrid = {
    /*executed=*/10622,         /*cross_posts=*/27,
    /*scheduled_wakeups=*/189,  /*skipped_wakeups=*/0,
    /*packets_delivered=*/429,  /*merge_hash=*/0xfc49597e74fa4023ull,
    /*merged_entries=*/17251};
constexpr DrainRun kSerialDrainChain = {
    /*executed=*/8838,          /*cross_posts=*/45,
    /*scheduled_wakeups=*/315,  /*skipped_wakeups=*/0,
    /*packets_delivered=*/1155, /*merge_hash=*/0x109cc5693aea4154ull,
    /*merged_entries=*/17982};

// One full workload, batch-collected. The workload itself is the same
// flood/relay network the determinism suite uses.
DrainRun RunWorkload(size_t threads, ScaleTopology topology) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  ScaleNetworkConfig cfg;
  cfg.motes = topology == ScaleTopology::kGrid ? 96 : 64;
  cfg.batch_log_charging = true;
  cfg.topology = topology;
  if (topology == ScaleTopology::kGrid) {
    cfg.sinks = 2;
  }
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(1.0));

  DrainRun run;
  run.executed = sim.executed_count();
  run.cross_posts = fabric.cross_posts();
  run.scheduled_wakeups = fabric.scheduled_wakeups();
  run.skipped_wakeups = fabric.skipped_wakeups();
  run.packets_delivered = fabric.packets_delivered();
  std::vector<MergedEntry> merged = MergeTraces(CollectNodeTraces(net));
  run.merge_hash = MergedTraceHash(merged);
  run.merged_entries = merged.size();
  return run;
}

void ExpectIdentical(const DrainRun& a, const DrainRun& b) {
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.cross_posts, b.cross_posts);
  EXPECT_EQ(a.scheduled_wakeups, b.scheduled_wakeups);
  EXPECT_EQ(a.skipped_wakeups, b.skipped_wakeups);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.merged_entries, b.merged_entries);
  EXPECT_EQ(a.merge_hash, b.merge_hash);
}

TEST(FabricDrainTest, GridMultiSinkParallelMatchesSerialAt1_2_4Threads) {
  // The workload must exercise the cross-shard machinery, or the
  // comparison proves nothing.
  EXPECT_GT(kSerialDrainGrid.cross_posts, 0u);
  EXPECT_GT(kSerialDrainGrid.scheduled_wakeups, 0u);
  EXPECT_GT(kSerialDrainGrid.merged_entries, 1000u);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("parallel drain, " + std::to_string(threads) + " threads");
    ExpectIdentical(kSerialDrainGrid,
                    RunWorkload(threads, ScaleTopology::kGrid));
  }
}

TEST(FabricDrainTest, ChainParallelMatchesSerialAt1_2_4Threads) {
  EXPECT_GT(kSerialDrainChain.cross_posts, 0u);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("parallel drain, " + std::to_string(threads) + " threads");
    ExpectIdentical(kSerialDrainChain,
                    RunWorkload(threads, ScaleTopology::kChain));
  }
}

// A radio that records every frame start into a shared, cross-radio log,
// so a test can observe the exact delivery order the drain produced.
class OrderLoggingRadio : public MediumClient {
 public:
  OrderLoggingRadio(node_id_t id, int channel,
                    std::vector<std::pair<node_id_t, node_id_t>>* log)
      : id_(id), channel_(channel), log_(log) {}

  node_id_t NodeId() const override { return id_; }
  int Channel() const override { return channel_; }
  bool Listening() const override { return true; }
  void OnFrameStart(node_id_t sender) override {
    log_->emplace_back(id_, sender);
  }
  void OnFrameComplete(const Packet&) override {}

 private:
  node_id_t id_;
  int channel_;
  std::vector<std::pair<node_id_t, node_id_t>>* log_;
};

Packet MakePacket(node_id_t src) {
  Packet p;
  p.src = src;
  p.dst = kBroadcastAddr;
  p.am_type = 1;
  p.payload.assign(4, 0xAA);
  return p;
}

// Drives three transmits that all post in the same window with equal
// timestamps — two from shard 1 (same tick, two channels, fixing the
// within-lane order) and one from shard 2 — and returns the order in
// which shard 0's listeners heard them.
std::vector<std::pair<node_id_t, node_id_t>> RunTieBreakScenario() {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 3;
  sim_cfg.threads = 1;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  std::vector<std::pair<node_id_t, node_id_t>> log;
  OrderLoggingRadio listener26(100, 26, &log);
  OrderLoggingRadio listener17(101, 17, &log);
  fabric.medium(0).Register(&listener26);
  fabric.medium(0).Register(&listener17);

  Tick t = Microseconds(100);
  // Shard 1's lane, in execution (= schedule) order: node 10 on channel
  // 26, then node 11 on channel 17 — same tick, so only the lane order
  // separates them. Shard 2: node 20 on channel 26 at the same tick.
  sim.queue(1).Schedule(t, [&fabric] {
    fabric.medium(1).BeginTransmit(10, 26, MakePacket(10), Microseconds(50));
  });
  sim.queue(1).Schedule(t, [&fabric] {
    fabric.medium(1).BeginTransmit(11, 17, MakePacket(11), Microseconds(50));
  });
  sim.queue(2).Schedule(t, [&fabric] {
    fabric.medium(2).BeginTransmit(20, 26, MakePacket(20), Microseconds(50));
  });
  sim.RunUntil(Milliseconds(5));
  EXPECT_EQ(fabric.cross_posts(), 3u);
  return log;
}

TEST(FabricDrainTest, LaneMergeBreaksTimeTiesBySourceShardThenLaneOrder) {
  // All three posts carry the same timestamp, so the (time, src_shard,
  // post order) merge must deliver shard 1's posts first — in lane order —
  // and shard 2's after them. All deliveries land on the same tick of
  // shard 0's engine, where same-tick FIFO makes the Schedule order
  // observable as the frame-start order. This is also the order the
  // global stable_sort of the serial drain produced.
  std::vector<std::pair<node_id_t, node_id_t>> expected = {
      {100, 10},  // shard 1, first post in its lane (channel 26).
      {101, 11},  // shard 1, second post (channel 17).
      {100, 20},  // shard 2 loses the time tie to shard 1.
  };
  EXPECT_EQ(RunTieBreakScenario(), expected);
}

struct CounterRun {
  uint64_t cross_posts = 0;
  uint64_t scheduled = 0;
  uint64_t skipped = 0;
  uint64_t lanes_skipped = 0;
};

// Six shards with deliberately sparse channel interest: shard 5 listens
// only on channel 17 while all traffic flows on channel 26, shard 4 has
// no radios at all, and the senders sit in shards 0..2 so several lanes
// stay empty too.
CounterRun RunSparseInterestScenario(size_t threads) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 6;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  // One log per radio: this scenario only checks counters, and the
  // radios live on different shards — a shared log would be written
  // concurrently from several workers during window execution.
  std::vector<std::pair<node_id_t, node_id_t>> log_a, log_b, log_c;
  OrderLoggingRadio rx_a(100, 26, &log_a);  // Shard 3 hears channel 26.
  OrderLoggingRadio rx_b(101, 26, &log_b);  // Shard 1 hears channel 26 too.
  OrderLoggingRadio rx_c(102, 17, &log_c);  // Shard 5: channel 17 only.
  fabric.medium(3).Register(&rx_a);
  fabric.medium(1).Register(&rx_b);
  fabric.medium(5).Register(&rx_c);

  // Three windows of traffic from shards 0..2, all on channel 26.
  for (int window = 0; window < 3; ++window) {
    Tick t = Microseconds(100 + 600 * window);
    for (size_t src : {size_t{0}, size_t{1}, size_t{2}}) {
      node_id_t sender = static_cast<node_id_t>(10 * (src + 1) + window);
      sim.queue(src).Schedule(t, [&fabric, src, sender] {
        fabric.medium(src).BeginTransmit(sender, 26, MakePacket(sender),
                                         Microseconds(50));
      });
    }
  }
  sim.RunUntil(Milliseconds(10));

  CounterRun run;
  run.cross_posts = fabric.cross_posts();
  run.scheduled = fabric.scheduled_wakeups();
  run.skipped = fabric.skipped_wakeups();
  run.lanes_skipped = fabric.lanes_skipped();
  return run;
}

TEST(FabricDrainTest, WakeupCountersIdenticalOnBothPaths) {
  // 9 posts; each fans out to 5 possible destinations. Channel 26 has
  // clients in shards 1 and 3, so a post from shard 1 schedules 1 wakeup
  // (shard 3) and one from shards 0/2 schedules 2 (shards 1 and 3). The
  // serial drain, which visited every (post, destination) pair one by
  // one, counted exactly these totals.
  constexpr uint64_t kCrossPosts = 9;
  constexpr uint64_t kScheduled = 3 * 1 + 6 * 2;
  constexpr uint64_t kSkipped = 9 * 5 - kScheduled;

  for (size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    CounterRun parallel = RunSparseInterestScenario(threads);
    EXPECT_EQ(parallel.cross_posts, kCrossPosts);
    EXPECT_EQ(parallel.scheduled, kScheduled);
    EXPECT_EQ(parallel.skipped, kSkipped);
  }
}

TEST(FabricDrainTest, IdleChannelLanesAreSkippedWholesale) {
  // Shard 5 listens only on channel 17 and every lane carries only
  // channel-26 posts, so 5's drain task must dismiss each non-empty lane
  // with one mask compare: 3 source lanes × 3 windows = 9. Shard 4 (no
  // radios, empty interest mask) dismisses the same 9; shards 0 and 2
  // (senders, no radios) each dismiss the other two senders' lanes, 6
  // apiece. 30 total.
  CounterRun parallel = RunSparseInterestScenario(1);
  EXPECT_EQ(parallel.lanes_skipped, 30u);
  // The wholesale skip must account its posts exactly like the per-post
  // path does: every unscheduled (post, destination) pair is a skip.
  EXPECT_EQ(parallel.skipped, 9u * 5 - parallel.scheduled);
}

TEST(FabricDrainTest, DrainProfilingRecordsOneSamplePerWindow) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 4;
  sim_cfg.threads = 2;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  sim.EnableBarrierProfiling(true);
  MediumFabric fabric(&sim);
  fabric.EnableDrainProfiling(true);

  ScaleNetworkConfig cfg;
  cfg.motes = 16;
  cfg.batch_log_charging = true;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  net.StartApps();
  sim.RunFor(Milliseconds(100));

  ASSERT_GT(sim.windows_run(), 0u);
  // One fabric-side drain sample per window; the sim-side phase series
  // always matches the hook series in length.
  EXPECT_EQ(fabric.drain_us_samples().size(), sim.windows_run());
  EXPECT_EQ(sim.drain_phase_us_samples().size(), sim.windows_run());
  EXPECT_EQ(sim.barrier_us_samples().size(), sim.windows_run());
  EXPECT_EQ(sim.window_us_samples().size(), sim.windows_run());
}

}  // namespace
}  // namespace quanto
