// Off-barrier emission: the EmissionPipeline consumer thread that takes
// the merge/regression/spill backend off the window critical path.
//
// The contract under test:
//  * Equivalence — with the consumer thread between the barrier and the
//    merger, the emitted sequence, FNV fingerprint, spill bytes and
//    streamed regression coefficients are byte-identical to the batch
//    merge at any thread count and any queue depth, and to what the
//    deleted synchronous hand-off (merge inside the barrier) emitted,
//    pinned below as constants.
//  * Backpressure — the bounded queue blocks the producer only when the
//    consumer falls max_depth windows behind, and the stall is counted.
//  * Lifecycle — early teardown joins the consumer after finishing the
//    queue (no merge loss, no use-after-free of pooled buffers), the
//    tail flush drains the queue before the final hash is read, and a
//    single-engine network refuses a pipeline it could never feed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/streaming.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/scale_network.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {
namespace {

MergedEntry MakeEntry(uint64_t time64, node_id_t node, uint32_t payload) {
  MergedEntry m;
  m.time64 = time64;
  m.node = node;
  m.entry.type = static_cast<uint8_t>(LogEntryType::kPowerState);
  m.entry.res_id = 0;
  m.entry.time = static_cast<uint32_t>(time64);
  m.entry.icount = 0;
  m.entry.payload = payload;
  return m;
}

// --- Unit level: queue mechanics --------------------------------------------

TEST(EmissionPipelineTest, ConsumesWindowsInOrderAndMatchesSyncMerger) {
  // The async pipeline performs exactly the synchronous call sequence, so
  // feeding the same runs through both must give identical fingerprints.
  StreamingTraceMerger sync_merger;
  StreamingTraceMerger async_merger;
  {
    EmissionPipeline pipeline(&async_merger, 2);
    for (uint32_t w = 0; w < 20; ++w) {
      std::vector<EmissionPipeline::ShardRun> batch;
      std::vector<MergedEntry> sync_run;
      for (uint32_t shard = 0; shard < 3; ++shard) {
        std::vector<MergedEntry> run;
        run.push_back(MakeEntry(100 * w + shard, static_cast<node_id_t>(shard + 1),
                                w * 10 + shard));
        sync_run = run;
        sync_merger.OnRun(shard, std::move(sync_run));
        batch.push_back(EmissionPipeline::ShardRun{shard, std::move(run)});
      }
      uint64_t watermark = 100 * w + 50;
      sync_merger.AdvanceWatermark(watermark);
      pipeline.SubmitWindow(std::move(batch), watermark, false);
    }
    pipeline.Drain();
    EXPECT_EQ(pipeline.windows_submitted(), 20u);
    EXPECT_EQ(pipeline.windows_consumed(), 20u);
  }
  sync_merger.Finish();
  async_merger.Finish();
  EXPECT_EQ(async_merger.emitted(), sync_merger.emitted());
  EXPECT_EQ(async_merger.hash(), sync_merger.hash());
}

TEST(EmissionPipelineTest, BackpressureEngagesAtTinyQueueDepth) {
  // Gate the emit hook so the consumer is provably stuck mid-window, fill
  // the depth-1 queue, and check a third submission blocks until the gate
  // opens — and that the stall is accounted.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  StreamingTraceMerger merger;
  merger.SetEmit([&](const MergedEntry&) {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  EmissionPipeline pipeline(&merger, 1);
  auto submit_one = [&pipeline](uint64_t w) {
    std::vector<EmissionPipeline::ShardRun> batch;
    std::vector<MergedEntry> run;
    run.push_back(MakeEntry(10 * w, 1, static_cast<uint32_t>(w)));
    batch.push_back(EmissionPipeline::ShardRun{0, std::move(run)});
    pipeline.SubmitWindow(std::move(batch), 10 * w + 5, false);
  };

  submit_one(1);  // Consumer pops it and blocks in the gated emit.
  submit_one(2);  // Sits in the queue: depth 1 reached.

  std::atomic<bool> third_submitted{false};
  std::thread producer([&] {
    submit_one(3);  // Must block: the consumer is >= 1 window behind.
    third_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(third_submitted.load());

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  producer.join();
  EXPECT_TRUE(third_submitted.load());
  pipeline.Drain();

  EXPECT_EQ(pipeline.windows_consumed(), 3u);
  EXPECT_GT(pipeline.consumer_stall_us(), 0u);
  EXPECT_GE(pipeline.runs_queued_peak(), 1u);
  merger.Finish();
  EXPECT_EQ(merger.emitted(), 3u);
}

TEST(EmissionPipelineTest, EarlyTeardownFinishesQueueWithoutMergeLoss) {
  // Destroying the pipeline with windows still queued (no Drain) must
  // consume them before joining: nothing the producer handed off is lost.
  StreamingTraceMerger reference;
  StreamingTraceMerger merger;
  {
    EmissionPipeline pipeline(&merger, 8);
    for (uint32_t w = 0; w < 32; ++w) {
      std::vector<MergedEntry> run;
      run.push_back(MakeEntry(10 * w, 2, w));
      std::vector<MergedEntry> ref_run = run;
      reference.OnRun(0, std::move(ref_run));
      reference.AdvanceWatermark(10 * w + 5);
      std::vector<EmissionPipeline::ShardRun> batch;
      batch.push_back(EmissionPipeline::ShardRun{0, std::move(run)});
      pipeline.SubmitWindow(std::move(batch), 10 * w + 5, false);
    }
    // No Drain: the destructor finishes the remaining queue and joins.
  }
  reference.Finish();
  merger.Finish();
  EXPECT_EQ(merger.emitted(), reference.emitted());
  EXPECT_EQ(merger.hash(), reference.hash());
}

TEST(EmissionPipelineTest, RetiredRunBuffersFlowBackToProducer) {
  // The allocation-free loop across the thread boundary: buffers the
  // consumer finished emitting come back (cleared, capacity intact)
  // through TakeRetiredRun, and consumed batch vectors through
  // TakeRetiredBatch.
  StreamingTraceMerger merger;
  EmissionPipeline pipeline(&merger, 4);
  std::vector<EmissionPipeline::ShardRun> batch;
  std::vector<MergedEntry> run;
  run.reserve(64);
  run.push_back(MakeEntry(10, 1, 1));
  batch.push_back(EmissionPipeline::ShardRun{0, std::move(run)});
  pipeline.SubmitWindow(std::move(batch), 100, false);
  pipeline.Drain();

  std::vector<MergedEntry> recycled;
  ASSERT_TRUE(pipeline.TakeRetiredRun(&recycled));
  EXPECT_TRUE(recycled.empty());
  EXPECT_GE(recycled.capacity(), 64u);
  EXPECT_FALSE(pipeline.TakeRetiredRun(&recycled));

  std::vector<EmissionPipeline::ShardRun> recycled_batch;
  ASSERT_TRUE(pipeline.TakeRetiredBatch(&recycled_batch));
  EXPECT_TRUE(recycled_batch.empty());
  EXPECT_FALSE(pipeline.TakeRetiredBatch(&recycled_batch));
}

// --- End to end: ScaleNetwork wiring ----------------------------------------

struct PipelineRun {
  uint64_t executed = 0;
  uint64_t merge_hash = 0;
  uint64_t emitted = 0;
  uint64_t dropped = 0;
  uint64_t seq_gaps = 0;
  uint64_t stall_us = 0;
  size_t runs_queued_peak = 0;
  PipelineResult fit;
};

// What the deleted synchronous hand-off emitted on the two streamed
// chain workloads below (1 thread, 512-entry rings).
struct PinnedSync {
  uint64_t executed;
  uint64_t merge_hash;
  uint64_t emitted;
};
constexpr PinnedSync kSync64x1s = {8838, 0x109cc5693aea4154ull, 17982};
constexpr PinnedSync kSync48x500ms = {2494, 0x335d2ceef3d302d9ull, 4432};

enum class EmitMode { kBatch, kAsync };

PipelineRun RunRelay(EmitMode mode, size_t threads, size_t motes,
                     double seconds, size_t emission_depth,
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
    // One huge segment: byte-comparable to the batch writer's single blob.
    spill = std::make_unique<FileTraceSink>(spill_path, 1 << 24);
    FileTraceSink* sink = spill.get();
    merger.SetEmit([sink](const MergedEntry& m) { sink->Append(m.entry); });
  } else if (pipeline != nullptr) {
    merger.SetEmit(
        [pipeline](const MergedEntry& m) { pipeline->Add(m.entry); });
  }
  // Joins before merger/spill are destroyed (reverse declaration order).
  std::unique_ptr<EmissionPipeline> emission;

  ScaleNetworkConfig cfg;
  cfg.motes = motes;
  cfg.log_capacity = mode == EmitMode::kBatch ? (1 << 16) : 512;
  cfg.batch_log_charging = true;
  if (mode == EmitMode::kAsync) {
    emission = std::make_unique<EmissionPipeline>(&merger, emission_depth);
    cfg.emission_pipeline = emission.get();
  }
  ScaleNetwork net(&sim, &fabric, cfg);
  EXPECT_EQ(net.premerge_active(), mode == EmitMode::kAsync);

  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(static_cast<Tick>(seconds * kTicksPerSecond));

  PipelineRun run;
  run.executed = sim.executed_count();
  run.dropped = net.entries_dropped();
  if (mode == EmitMode::kBatch) {
    std::vector<MergedEntry> merged = MergeTraces(CollectNodeTraces(net));
    run.merge_hash = MergedTraceHash(merged);
    run.emitted = merged.size();
    if (pipeline != nullptr) {
      for (const MergedEntry& m : merged) {
        pipeline->Add(m.entry);
      }
    }
  } else {
    // SealAllChunks drains the hand-off queue, so the hash read below is
    // the final one.
    net.SealAllChunks();
    merger.Finish();
    run.merge_hash = merger.hash();
    run.emitted = merger.emitted();
    run.seq_gaps = net.premerge_seq_gaps();
    run.stall_us = emission->consumer_stall_us();
    run.runs_queued_peak = emission->runs_queued_peak();
    EXPECT_EQ(emission->windows_submitted(), emission->windows_consumed());
  }
  if (spill != nullptr) {
    EXPECT_TRUE(spill->Close());
  }
  if (pipeline != nullptr) {
    run.fit = pipeline->Solve();
  }
  return run;
}

TEST(EmissionPipelineTest, AsyncMatchesSyncAndBatchAt1_2_4Threads) {
  // The golden-hash equivalence proof for off-barrier emission: identical
  // event sequences, merged fingerprints and bitwise-equal streamed
  // regression coefficients vs the batch merge and the synchronous
  // hand-off's pinned output, at 1, 2 and 4 worker threads.
  StreamingPipeline batch_pipeline;
  PipelineRun batch =
      RunRelay(EmitMode::kBatch, 1, 64, 1.0, 0, &batch_pipeline);
  ASSERT_GT(batch.emitted, 1000u);
  EXPECT_EQ(batch.executed, kSync64x1s.executed);
  EXPECT_EQ(batch.emitted, kSync64x1s.emitted);
  EXPECT_EQ(batch.merge_hash, kSync64x1s.merge_hash);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    StreamingPipeline async_pipeline;
    PipelineRun async_run = RunRelay(
        EmitMode::kAsync, threads, 64, 1.0,
        EmissionPipeline::kDefaultMaxDepth, &async_pipeline);
    EXPECT_EQ(async_run.dropped, 0u) << threads;
    EXPECT_EQ(async_run.seq_gaps, 0u) << threads;
    EXPECT_EQ(async_run.executed, batch.executed) << threads;
    EXPECT_EQ(async_run.emitted, batch.emitted) << threads;
    EXPECT_EQ(async_run.merge_hash, batch.merge_hash) << threads;

    ASSERT_EQ(async_run.fit.ok, batch.fit.ok);
    ASSERT_EQ(async_run.fit.coefficients.size(),
              batch.fit.coefficients.size());
    for (size_t i = 0; i < batch.fit.coefficients.size(); ++i) {
      EXPECT_EQ(async_run.fit.coefficients[i], batch.fit.coefficients[i])
          << "coefficient " << i << " at " << threads << " threads";
    }
  }
}

TEST(EmissionPipelineTest, TailFlushDrainsTinyDepthQueueBeforeFinalHash) {
  // Depth 1 forces the producer through the backpressure path on nearly
  // every window; the tail flush must still drain everything before the
  // final hash — asserted equal to what the synchronous hand-off emitted.
  PipelineRun tiny = RunRelay(EmitMode::kAsync, 1, 48, 0.5, 1);
  EXPECT_EQ(tiny.dropped, 0u);
  EXPECT_EQ(tiny.seq_gaps, 0u);
  EXPECT_EQ(tiny.executed, kSync48x500ms.executed);
  EXPECT_EQ(tiny.emitted, kSync48x500ms.emitted);
  EXPECT_EQ(tiny.merge_hash, kSync48x500ms.merge_hash);
  // Backpressure kept the queue at its bound, whatever the stall count.
  EXPECT_GE(tiny.runs_queued_peak, 1u);
}

TEST(EmissionPipelineTest, SpillBytesIdenticalAcrossAsyncAndBatchWriter) {
  // Byte-level equivalence all the way to disk, with the spill writer
  // running on the consumer thread: the async spill file equals the batch
  // path's WriteTraceFile output exactly.
  std::string batch_path = ::testing::TempDir() + "/emission_batch.qnto";
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

  std::string async_path = ::testing::TempDir() + "/emission_async.qnto";
  PipelineRun async_run = RunRelay(EmitMode::kAsync, 2, 48, 1.0,
                                   EmissionPipeline::kDefaultMaxDepth, nullptr,
                                   async_path);
  EXPECT_EQ(async_run.dropped, 0u);

  auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  std::string batch_bytes = read_all(batch_path);
  std::string async_bytes = read_all(async_path);
  ASSERT_FALSE(batch_bytes.empty());
  EXPECT_EQ(async_bytes, batch_bytes);
  std::remove(batch_path.c_str());
  std::remove(async_path.c_str());
}

TEST(EmissionPipelineTest, SingleEngineBuildRefusesAPipeline) {
  // A single engine has no window barriers to seal and emit behind, so a
  // pipeline handed to it would never see a run and its merger would
  // silently hash an empty trace. Construction must abort instead.
  // Threadsafe style: the death statement runs in a freshly executed
  // child, whatever threads the test process holds.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EventQueue queue;
        Medium medium(&queue);
        StreamingTraceMerger merger;
        EmissionPipeline pipeline(&merger);
        ScaleNetworkConfig cfg;
        cfg.motes = 8;
        cfg.emission_pipeline = &pipeline;
        ScaleNetwork net(&queue, &medium, cfg);
      },
      "emission pipeline needs a sharded build");
}

}  // namespace
}  // namespace quanto
