// The parallel barrier pipeline: dirty-list sealing, per-shard pre-merged
// runs, and the allocation-free freelist steady state.
//
// The contract under test is threefold:
//  * Equivalence — the pre-merged pipeline emits the exact merged
//    sequence (order, content, FNV fingerprint, spill bytes) of the batch
//    merge at any thread count, and the one the deleted coordinator sweep
//    (every mote sealed by the coordinator each window) emitted, pinned
//    below as constants.
//  * Dirty-list economics — an idle mote costs the collector nothing: no
//    sweep visit, no seal call, no chunk, no merger churn.
//  * Recycling — after warm-up, the seal -> merge -> recycle loop
//    performs no entry-buffer or run-buffer allocation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/streaming.h"
#include "src/analysis/trace_io.h"
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

// --- Dirty list --------------------------------------------------------------

TEST(DirtyListTest, HookFiresOncePerSealInterval) {
  FakeClock clock;
  FakeCounter meter;
  QuantoLogger logger(&clock, &meter, 16);
  int fires = 0;
  logger.SetDirtyHook(
      [](void* ctx, QuantoLogger*) { ++*static_cast<int*>(ctx); }, &fires);

  EXPECT_FALSE(logger.dirty());
  clock.now = 10;
  logger.Append(LogEntryType::kPowerState, 0, 1);
  logger.Append(LogEntryType::kPowerState, 0, 2);
  logger.Append(LogEntryType::kPowerState, 0, 3);
  EXPECT_TRUE(logger.dirty());
  EXPECT_EQ(fires, 1);  // Once per interval, not per append.

  // Sealing re-arms the hook.
  ShardRunBuilder builder(0);
  logger.SetSink(&builder, 1);
  logger.SealToSink();
  EXPECT_FALSE(logger.dirty());
  clock.now = 20;
  logger.Append(LogEntryType::kPowerState, 0, 4);
  EXPECT_EQ(fires, 2);
}

TEST(DirtyListTest, IdleLoggersAreNeverSwept) {
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(3);
  QuantoLogger busy(&clock, &meter, 16);
  QuantoLogger idle(&clock, &meter, 16);
  for (QuantoLogger* logger : {&busy, &idle}) {
    logger->SetSink(&builder, logger == &busy ? 1 : 2);
    logger->SetChunkPool(&builder.pool());
    logger->SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
  }

  clock.now = 50;
  busy.Append(LogEntryType::kPowerState, 0, 1);
  EXPECT_EQ(builder.dirty_count(), 1u);

  EXPECT_EQ(builder.BuildRun(100), 1u);
  // Only the dirty logger was sealed; the idle one was never visited.
  EXPECT_EQ(builder.seal_calls(), 1u);
  EXPECT_EQ(busy.chunks_sealed(), 1u);
  EXPECT_EQ(idle.chunks_sealed(), 0u);
  EXPECT_EQ(idle.empty_seals_skipped(), 0u);
  builder.TakeRun();

  // A window where nothing logged builds nothing and seals nothing.
  EXPECT_EQ(builder.BuildRun(200), 0u);
  EXPECT_EQ(builder.seal_calls(), 1u);
  EXPECT_FALSE(builder.HasRun());
}

// --- ShardRunBuilder ---------------------------------------------------------

TEST(ShardRunBuilderTest, HoldsBackBoundaryEntriesForNextRun) {
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  QuantoLogger logger(&clock, &meter, 16);
  logger.SetSink(&builder, 7);
  logger.SetChunkPool(&builder.pool());
  logger.SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);

  clock.now = 90;
  logger.Append(LogEntryType::kPowerState, 0, 1);
  clock.now = 100;  // Exactly at the barrier: a hook-time entry.
  logger.Append(LogEntryType::kPowerState, 0, 2);

  // The barrier-time entry is held back so this run stays strictly below
  // its barrier (the watermark would not have released it anyway).
  EXPECT_EQ(builder.BuildRun(100), 1u);
  std::vector<MergedEntry> first = builder.TakeRun();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].time64, 90u);
  EXPECT_EQ(builder.entries_carried(), 1u);

  // The held-back entry leads the next run, before anything logged later.
  clock.now = 150;
  logger.Append(LogEntryType::kPowerState, 0, 3);
  EXPECT_EQ(builder.BuildRun(200), 2u);
  std::vector<MergedEntry> second = builder.TakeRun();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].time64, 100u);
  EXPECT_EQ(second[0].entry.payload, 2u);
  EXPECT_EQ(second[1].time64, 150u);
}

TEST(ShardRunBuilderTest, PremergedRunsMatchBatchMergeIncludingWrap) {
  // Two loggers on one shard, same-tick ties across nodes and a 32-bit
  // wrap inside one log, runs cut at awkward barriers: feeding the built
  // runs through OnRun must reproduce MergeTraces exactly, hash included.
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  QuantoLogger a(&clock, &meter, 64);
  QuantoLogger b(&clock, &meter, 64);
  a.SetSink(&builder, 5);
  b.SetSink(&builder, 3);
  for (QuantoLogger* logger : {&a, &b}) {
    logger->SetChunkPool(&builder.pool());
    logger->SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
  }

  struct Step {
    QuantoLogger* logger;
    uint32_t time;
    uint32_t payload;
  };
  std::vector<Step> steps = {
      {&a, 100, 1}, {&b, 100, 5},          // Tie across nodes.
      {&a, 0xFFFFFFF0u, 2},                // Near the wrap...
      {&a, 5, 3},  {&b, 6, 6}, {&a, 6, 4}  // ...and past it.
  };
  // Reference logs for the batch merge (unwrapped by MergeTraces itself).
  std::vector<NodeTrace> traces(2);
  traces[0].node = 5;
  traces[1].node = 3;

  StreamingTraceMerger merger;
  std::vector<MergedEntry> streamed;
  merger.SetEmit([&streamed](const MergedEntry& m) { streamed.push_back(m); });

  // Log in three windows with barriers placed mid-sequence (in unwrapped
  // time the wrap puts entries 2..5 past 2^32).
  size_t step = 0;
  for (uint64_t barrier :
       {uint64_t{0xFFFFFFF0u}, uint64_t{1} << 32, ~uint64_t{0}}) {
    while (step < steps.size()) {
      const Step& s = steps[step];
      uint64_t unwrapped = s.time < 100 ? (uint64_t{1} << 32) + s.time
                                        : uint64_t{s.time};
      if (unwrapped >= barrier) {
        break;
      }
      clock.now = s.time;
      s.logger->Append(LogEntryType::kPowerState, 0, s.payload);
      LogEntry e;
      e.type = static_cast<uint8_t>(LogEntryType::kPowerState);
      e.res_id = 0;
      e.time = s.time;
      e.icount = 0;
      e.payload = s.payload;
      (s.logger == &a ? traces[0] : traces[1]).entries.push_back(e);
      ++step;
    }
    builder.BuildRun(barrier);
    if (builder.HasRun()) {
      merger.OnRun(0, builder.TakeRun());
    }
    merger.AdvanceWatermark(barrier);
  }
  merger.Finish();

  std::vector<MergedEntry> batch = MergeTraces(traces);
  ASSERT_EQ(streamed.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].time64, batch[i].time64) << "entry " << i;
    EXPECT_EQ(streamed[i].node, batch[i].node) << "entry " << i;
    EXPECT_EQ(streamed[i].entry.payload, batch[i].entry.payload)
        << "entry " << i;
  }
  EXPECT_EQ(merger.hash(), MergedTraceHash(batch));
  EXPECT_EQ(builder.seq_gaps(), 0u);
}

// --- Freelist recycling ------------------------------------------------------

TEST(TraceChunkPoolTest, SteadyStateSealAndMergeAllocateNothing) {
  FakeClock clock;
  FakeCounter meter;
  ShardRunBuilder builder(0);
  QuantoLogger logger(&clock, &meter, 64);
  logger.SetSink(&builder, 1);
  logger.SetChunkPool(&builder.pool());
  logger.SetDirtyHook(ShardRunBuilder::MarkDirtyHook, &builder);
  StreamingTraceMerger merger;

  uint64_t allocated_after_warmup = 0;
  for (int window = 0; window < 50; ++window) {
    clock.now = 1000 * (window + 1);
    for (int j = 0; j < 8; ++j) {
      logger.Append(LogEntryType::kPowerState, 0, window);
    }
    Tick barrier = clock.now + 1;
    builder.BuildRun(barrier);
    if (builder.HasRun()) {
      merger.OnRun(0, builder.TakeRun());
    }
    merger.AdvanceWatermark(barrier);
    std::vector<std::vector<MergedEntry>> retired;
    merger.TakeRetiredRuns(&retired);
    for (std::vector<MergedEntry>& buf : retired) {
      builder.RecycleRunBuffer(std::move(buf));
    }
    if (window == 4) {
      allocated_after_warmup = builder.pool().allocated();
    }
  }
  merger.Finish();

  // Entry buffers: every seal acquired one, but after warm-up all of them
  // were recycled buffers — zero fresh allocations in the steady state.
  EXPECT_EQ(builder.pool().acquired(), 50u);
  EXPECT_EQ(builder.pool().recycled(), 50u);
  EXPECT_GT(allocated_after_warmup, 0u);
  EXPECT_EQ(builder.pool().allocated(), allocated_after_warmup);
  EXPECT_EQ(merger.emitted(), 400u);
  EXPECT_EQ(merger.buffered(), 0u);
}

// --- End-to-end equivalence --------------------------------------------------

struct PipelineRun {
  uint64_t executed = 0;
  uint64_t merge_hash = 0;
  uint64_t emitted = 0;
  uint64_t dropped = 0;
  uint64_t seq_gaps = 0;
  uint64_t windows = 0;
  uint64_t seal_calls = 0;
  uint64_t chunks_sealed = 0;
  uint64_t empty_seals_skipped = 0;
  size_t motes = 0;
  PipelineResult fit;
};

// What the deleted coordinator sweep emitted on the two streamed chain
// workloads below (1 thread, 512-entry rings).
struct PinnedSweep {
  uint64_t executed;
  uint64_t windows;
  uint64_t merge_hash;
  uint64_t emitted;
  uint64_t chunks_sealed;
  uint64_t empty_seals_skipped;  // One per idle mote per window.
};
constexpr PinnedSweep kSweep64x1500ms = {13838, 709, 0xf6c24634ad9d974full,
                                         27728, 6041, 39399};
constexpr PinnedSweep kSweep48x500ms = {2494, 112, 0x335d2ceef3d302d9ull,
                                        4432, 921, 4503};

enum class SealMode { kBatch, kPremerged };

PipelineRun RunRelay(SealMode mode, size_t threads, size_t motes,
                     double seconds, size_t log_capacity,
                     StreamingPipeline* pipeline = nullptr,
                     const std::string& spill_path = std::string()) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  StreamingTraceMerger merger;
  std::unique_ptr<FileTraceSink> spill;
  if (!spill_path.empty()) {
    // One huge segment, so the spill is byte-comparable to the batch
    // writer's single-blob output.
    spill = std::make_unique<FileTraceSink>(spill_path, 1 << 24);
    FileTraceSink* sink = spill.get();
    merger.SetEmit([sink](const MergedEntry& m) { sink->Append(m.entry); });
  } else if (pipeline != nullptr) {
    merger.SetEmit(
        [pipeline](const MergedEntry& m) { pipeline->Add(m.entry); });
  }
  // Joins before merger/spill are destroyed (reverse declaration order).
  EmissionPipeline emission(&merger);

  ScaleNetworkConfig cfg;
  cfg.motes = motes;
  cfg.log_capacity = log_capacity;
  cfg.batch_log_charging = true;
  if (mode == SealMode::kPremerged) {
    cfg.emission_pipeline = &emission;
  }
  ScaleNetwork net(&sim, &fabric, cfg);

  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(static_cast<Tick>(seconds * kTicksPerSecond));

  PipelineRun run;
  run.executed = sim.executed_count();
  run.windows = sim.windows_run();
  run.dropped = net.entries_dropped();
  run.motes = motes;
  if (mode == SealMode::kBatch) {
    std::vector<MergedEntry> merged = MergeTraces(CollectNodeTraces(net));
    run.merge_hash = MergedTraceHash(merged);
    run.emitted = merged.size();
    if (pipeline != nullptr) {
      for (const MergedEntry& m : merged) {
        pipeline->Add(m.entry);
      }
    }
  } else {
    net.SealAllChunks();
    merger.Finish();
    run.merge_hash = merger.hash();
    run.emitted = merger.emitted();
    run.seq_gaps = net.premerge_seq_gaps();
    run.seal_calls = net.premerge_seal_calls();
    run.chunks_sealed = net.chunks_sealed();
    run.empty_seals_skipped = net.empty_seals_skipped();
  }
  if (spill != nullptr) {
    EXPECT_TRUE(spill->Close());
  }
  if (pipeline != nullptr) {
    run.fit = pipeline->Solve();
  }
  return run;
}

TEST(BarrierPipelineTest, PremergedMatchesCoordinatorSealAndBatchAt1_2_4) {
  // The golden-hash equivalence proof for the parallel barrier pipeline:
  // identical event sequences, merged fingerprints and streamed
  // regression coefficients vs the batch merge and the coordinator
  // sweep's pinned output, at 1, 2 and 4 worker threads.
  StreamingPipeline batch_pipeline;
  PipelineRun batch =
      RunRelay(SealMode::kBatch, 1, 64, 1.5, 1 << 16, &batch_pipeline);
  ASSERT_GT(batch.emitted, 1000u);
  EXPECT_EQ(batch.executed, kSweep64x1500ms.executed);
  EXPECT_EQ(batch.emitted, kSweep64x1500ms.emitted);
  EXPECT_EQ(batch.merge_hash, kSweep64x1500ms.merge_hash);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    StreamingPipeline premerge_pipeline;
    PipelineRun premerged = RunRelay(SealMode::kPremerged, threads, 64, 1.5,
                                     512, &premerge_pipeline);
    EXPECT_EQ(premerged.dropped, 0u) << threads;
    EXPECT_EQ(premerged.seq_gaps, 0u) << threads;
    EXPECT_EQ(premerged.executed, batch.executed) << threads;
    EXPECT_EQ(premerged.emitted, batch.emitted) << threads;
    EXPECT_EQ(premerged.merge_hash, batch.merge_hash) << threads;

    // Bitwise-equal regression output (the analysis sees the same bytes).
    ASSERT_EQ(premerged.fit.ok, batch.fit.ok);
    ASSERT_EQ(premerged.fit.coefficients.size(),
              batch.fit.coefficients.size());
    for (size_t i = 0; i < batch.fit.coefficients.size(); ++i) {
      EXPECT_EQ(premerged.fit.coefficients[i], batch.fit.coefficients[i])
          << "coefficient " << i << " at " << threads << " threads";
    }

    // Dirty-list economics: seal cost is O(motes that logged), far below
    // the motes * windows cost of a full sweep, and every seal produced a
    // chunk (no empty-seal churn at all on this pipeline) — the same
    // chunks the sweep sealed.
    EXPECT_GT(premerged.seal_calls, 0u);
    EXPECT_LT(premerged.seal_calls, premerged.windows * premerged.motes / 4)
        << threads;
    EXPECT_EQ(premerged.seal_calls, premerged.chunks_sealed) << threads;
    EXPECT_EQ(premerged.chunks_sealed, kSweep64x1500ms.chunks_sealed)
        << threads;
    EXPECT_EQ(premerged.empty_seals_skipped, 0u) << threads;
  }
}

TEST(BarrierPipelineTest, CoordinatorSweepPaysEmptySealsPremergeDoesNot) {
  // The counter-level statement of the empty-seal satellite: the sweep
  // visited every mote every window (idle visits counted by
  // empty_seals_skipped — pinned below); the dirty-list pipeline never
  // makes the visit in the first place, and seals the same chunks.
  const PinnedSweep& sweep = kSweep48x500ms;
  EXPECT_GT(sweep.empty_seals_skipped, 0u);
  EXPECT_LT(sweep.chunks_sealed, sweep.windows * 48);

  PipelineRun premerged = RunRelay(SealMode::kPremerged, 1, 48, 0.5, 512);
  EXPECT_EQ(premerged.empty_seals_skipped, 0u);
  EXPECT_EQ(premerged.chunks_sealed, sweep.chunks_sealed);
  EXPECT_EQ(premerged.windows, sweep.windows);
  EXPECT_EQ(premerged.executed, sweep.executed);
  EXPECT_EQ(premerged.emitted, sweep.emitted);
  EXPECT_EQ(premerged.merge_hash, sweep.merge_hash);
}

TEST(BarrierPipelineTest, SpillBytesIdenticalToBatchWriter) {
  // Byte-level equivalence all the way to disk: a premerged streamed run
  // spilling through FileTraceSink (single segment) produces the exact
  // file the batch path's WriteTraceFile produces — which is what makes
  // quanto_report output byte-identical across the pipelines.
  PipelineRun batch = RunRelay(SealMode::kBatch, 2, 48, 1.0, 1 << 16);

  std::string batch_path = ::testing::TempDir() + "/barrier_batch.qnto";
  {
    ShardedSimulator::Config sim_cfg;
    sim_cfg.shards = 8;
    sim_cfg.threads = 2;
    sim_cfg.lookahead = Microseconds(512);
    ShardedSimulator sim(sim_cfg);
    MediumFabric fabric(&sim);
    ScaleNetworkConfig cfg;
    cfg.motes = 48;
    cfg.log_capacity = 1 << 16;
    cfg.batch_log_charging = true;
    ScaleNetwork net(&sim, &fabric, cfg);
    net.PowerUp();
    sim.RunFor(Milliseconds(5));
    net.StartApps();
    sim.RunFor(Seconds(1));
    ASSERT_TRUE(WriteTraceFile(
        batch_path, MergedEntryStream(MergeTraces(CollectNodeTraces(net)))));
  }

  std::string spill_path = ::testing::TempDir() + "/barrier_premerge.qnto";
  PipelineRun premerged =
      RunRelay(SealMode::kPremerged, 2, 48, 1.0, 512, nullptr, spill_path);
  EXPECT_EQ(premerged.merge_hash, batch.merge_hash);

  auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  std::string batch_bytes = read_all(batch_path);
  std::string spill_bytes = read_all(spill_path);
  ASSERT_FALSE(batch_bytes.empty());
  EXPECT_EQ(spill_bytes, batch_bytes);
  std::remove(batch_path.c_str());
  std::remove(spill_path.c_str());
}

}  // namespace
}  // namespace quanto
