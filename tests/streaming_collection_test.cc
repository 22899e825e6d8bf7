// Streaming trace collection: the pipeline from bounded-archive loggers
// through the per-shard pre-merge builders, the emission pipeline's
// incremental merge and on to the spill file.
//
// The contract under test is equivalence: a streamed run must (a) execute
// the exact event sequence of a batch run (sealing is host-side
// observation, not simulation), and (b) emit the exact merged entry
// sequence — order, content, FNV fingerprint — that the post-hoc
// MergeTraces path produces, online and with O(window) resident state.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
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

LogEntry MakeEntry(uint32_t time, uint32_t payload = 0) {
  LogEntry e;
  e.type = static_cast<uint8_t>(LogEntryType::kPowerState);
  e.res_id = 0;
  e.time = time;
  e.icount = time / 2;
  e.payload = payload;
  return e;
}

TraceChunk MakeChunk(node_id_t node, uint64_t seq,
                     std::vector<LogEntry> entries) {
  TraceChunk chunk;
  chunk.node = node;
  chunk.seq = seq;
  chunk.entries = std::move(entries);
  return chunk;
}

// --- Merger unit tests -------------------------------------------------------

// Seals everything a one-shard builder has received below `barrier` into
// one run and hands it to `merger` as stream `stream`.
void FeedRun(ShardRunBuilder* builder, StreamingTraceMerger* merger,
             uint32_t stream, Tick barrier) {
  builder->BuildRun(barrier);
  if (builder->HasRun()) {
    merger->OnRun(stream, builder->TakeRun());
  }
}

TEST(StreamingMergeTest, EmitsInMergeOrderAcrossWatermarks) {
  std::vector<MergedEntry> emitted;
  StreamingTraceMerger merger(
      [&emitted](const MergedEntry& m) { emitted.push_back(m); });
  ShardRunBuilder builder(0);

  builder.OnChunk(MakeChunk(1, 0, {MakeEntry(10), MakeEntry(30)}));
  builder.OnChunk(MakeChunk(2, 0, {MakeEntry(20)}));
  FeedRun(&builder, &merger, 0, ~Tick{0});

  // Nothing emits below a watermark that nothing clears.
  merger.AdvanceWatermark(10);
  EXPECT_EQ(merger.emitted(), 0u);

  // Strictly-below semantics: watermark 30 releases 10 and 20, not 30.
  merger.AdvanceWatermark(30);
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0].node, 1);
  EXPECT_EQ(emitted[0].time64, 10u);
  EXPECT_EQ(emitted[1].node, 2);
  EXPECT_EQ(emitted[1].time64, 20u);

  merger.Finish();
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(emitted[2].time64, 30u);
  EXPECT_EQ(merger.buffered(), 0u);
  EXPECT_EQ(builder.seq_gaps(), 0u);
}

TEST(StreamingMergeTest, IdleStreamNeverBlocksTheWatermark) {
  // The idle-shard case: shard 7's stream exists (it delivered an early
  // run) but contributes nothing afterwards. Its silence must not hold
  // back other streams' emission — only buffered entries gate the merge,
  // never the set of known streams.
  std::vector<MergedEntry> emitted;
  StreamingTraceMerger merger(
      [&emitted](const MergedEntry& m) { emitted.push_back(m); });
  ShardRunBuilder idle(7);
  ShardRunBuilder busy(1);

  idle.OnChunk(MakeChunk(7, 0, {MakeEntry(1)}));
  FeedRun(&idle, &merger, 7, 5);
  merger.AdvanceWatermark(5);
  ASSERT_EQ(emitted.size(), 1u);  // Shard 7's entry emitted, stream now idle.

  busy.OnChunk(MakeChunk(1, 0, {MakeEntry(100), MakeEntry(200)}));
  busy.OnChunk(MakeChunk(2, 0, {MakeEntry(150)}));
  FeedRun(&busy, &merger, 1, 201);
  merger.AdvanceWatermark(201);
  ASSERT_EQ(emitted.size(), 4u);
  EXPECT_EQ(emitted[1].time64, 100u);
  EXPECT_EQ(emitted[2].time64, 150u);
  EXPECT_EQ(emitted[3].time64, 200u);
}

TEST(StreamingMergeTest, MatchesBatchMergeIncludingWrapUnwrap) {
  // Three nodes with same-tick ties across nodes and a 32-bit timestamp
  // wrap inside one log; chunks cut at awkward places and runs cut at a
  // barrier that holds an entry back. The streamed emission must equal
  // MergeTraces on the concatenated logs, entry for entry and hash for
  // hash.
  std::vector<NodeTrace> traces(3);
  traces[0] = {5, {MakeEntry(100, 1), MakeEntry(0xFFFFFFF0u, 2),
                   MakeEntry(5, 3), MakeEntry(6, 4)}};  // Wraps at entry 3.
  traces[1] = {3, {MakeEntry(100, 5), MakeEntry(200, 6)}};
  traces[2] = {9, {MakeEntry(100, 7)}};

  std::vector<MergedEntry> batch = MergeTraces(traces);

  std::vector<MergedEntry> streamed;
  StreamingTraceMerger merger(
      [&streamed](const MergedEntry& m) { streamed.push_back(m); });
  ShardRunBuilder builder(0);
  // First window: the three-way tie at 100; node 3's entry at 200 lies
  // past the barrier and is held back into the next run.
  builder.OnChunk(MakeChunk(5, 0, {traces[0].entries[0]}));
  builder.OnChunk(MakeChunk(3, 0, traces[1].entries));
  builder.OnChunk(MakeChunk(9, 0, traces[2].entries));
  FeedRun(&builder, &merger, 0, 150);
  merger.AdvanceWatermark(150);
  EXPECT_EQ(builder.entries_carried(), 1u);
  // Second window: node 5 arrives in two more chunks, split around the
  // wrap.
  builder.OnChunk(
      MakeChunk(5, 1, {traces[0].entries[1], traces[0].entries[2]}));
  builder.OnChunk(MakeChunk(5, 2, {traces[0].entries[3]}));
  FeedRun(&builder, &merger, 0, ~Tick{0});
  merger.Finish();

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

TEST(StreamingMergeTest, CountsChunkSequenceGaps) {
  ShardRunBuilder builder(0);
  builder.OnChunk(MakeChunk(1, 0, {MakeEntry(1)}));
  builder.OnChunk(MakeChunk(1, 2, {MakeEntry(2)}));  // Seq 1 went missing.
  EXPECT_EQ(builder.seq_gaps(), 1u);
}

// --- Logger bounded-archive mode ---------------------------------------------

struct RecordingSink : public TraceSink {
  void OnChunk(TraceChunk&& chunk) override {
    chunks.push_back(std::move(chunk));
  }
  std::vector<TraceChunk> chunks;
};

TEST(TraceSinkTest, LoggerSealsArchiveAndBufferInOrder) {
  FakeClock clock;
  FakeCounter meter;
  QuantoLogger logger(&clock, &meter, 16);
  RecordingSink sink;
  logger.SetSink(&sink, 42);
  EXPECT_TRUE(logger.bounded_archive());

  clock.now = 100;
  logger.Append(LogEntryType::kPowerState, 0, 1);
  clock.now = 200;
  logger.Append(LogEntryType::kPowerState, 0, 2);
  logger.Drain(1);  // Stage one entry in the archive, one stays buffered.
  EXPECT_EQ(logger.SealToSink(), 2u);
  EXPECT_EQ(logger.archived(), 0u);
  EXPECT_EQ(logger.buffered(), 0u);

  clock.now = 300;
  logger.Append(LogEntryType::kPowerState, 0, 3);
  EXPECT_EQ(logger.SealToSink(), 1u);
  EXPECT_EQ(logger.SealToSink(), 0u);  // Empty: no chunk handed off.

  ASSERT_EQ(sink.chunks.size(), 2u);
  EXPECT_EQ(sink.chunks[0].node, 42);
  EXPECT_EQ(sink.chunks[0].seq, 0u);
  ASSERT_EQ(sink.chunks[0].entries.size(), 2u);
  EXPECT_EQ(sink.chunks[0].entries[0].time, 100u);
  EXPECT_EQ(sink.chunks[0].entries[1].time, 200u);
  EXPECT_EQ(sink.chunks[1].seq, 1u);
  ASSERT_EQ(sink.chunks[1].entries.size(), 1u);
  EXPECT_EQ(sink.chunks[1].entries[0].time, 300u);
  EXPECT_EQ(logger.chunks_sealed(), 2u);
}

TEST(TraceSinkTest, DrainChunkLeavesNoArchiveCopyInBoundedMode) {
  FakeClock clock;
  FakeCounter meter;
  QuantoLogger logger(&clock, &meter, 16);
  RecordingSink sink;
  logger.SetSink(&sink, 7);

  logger.Append(LogEntryType::kPowerState, 0, 1);
  logger.Append(LogEntryType::kPowerState, 0, 2);
  TraceChunk batch;
  EXPECT_EQ(logger.DrainChunk(1, &batch), 1u);
  EXPECT_EQ(batch.node, 7);
  ASSERT_EQ(batch.entries.size(), 1u);
  // Bounded mode: the drained entry left the logger entirely.
  EXPECT_EQ(logger.archived(), 0u);
  EXPECT_EQ(logger.buffered(), 1u);
}

TEST(TraceSinkTest, DrainChunkKeepsArchiveInBatchMode) {
  FakeClock clock;
  FakeCounter meter;
  QuantoLogger logger(&clock, &meter, 16);

  clock.now = 5;
  logger.Append(LogEntryType::kPowerState, 0, 1);
  TraceChunk batch;
  EXPECT_EQ(logger.DrainChunk(8, &batch), 1u);
  ASSERT_EQ(batch.entries.size(), 1u);
  // Batch mode: Trace() still returns everything (the radio-dump tests
  // rely on the local archive matching what went on the air).
  EXPECT_EQ(logger.archived(), 1u);
  EXPECT_EQ(logger.Trace().size(), 1u);
}

// --- End-to-end: sharded runs, sealed at barriers ----------------------------

struct ShardedStreamRun {
  uint64_t executed = 0;
  uint64_t merge_hash = 0;
  uint64_t emitted = 0;
  uint64_t dropped = 0;
  size_t peak_buffered = 0;
  uint64_t seq_gaps = 0;
  PipelineResult fit;
};

ShardedStreamRun RunStreamedRelay(size_t threads, size_t motes,
                                  double seconds, size_t log_capacity,
                                  ScaleTopology topology = ScaleTopology::kChain,
                                  size_t sinks = 1,
                                  StreamingPipeline* pipeline = nullptr) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  StreamingTraceMerger merger;
  if (pipeline != nullptr) {
    merger.SetEmit([pipeline](const MergedEntry& m) { pipeline->Add(m.entry); });
  }
  EmissionPipeline emission(&merger);
  ScaleNetworkConfig cfg;
  cfg.motes = motes;
  cfg.log_capacity = log_capacity;
  cfg.batch_log_charging = true;
  cfg.topology = topology;
  cfg.sinks = sinks;
  cfg.emission_pipeline = &emission;
  ScaleNetwork net(&sim, &fabric, cfg);

  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(static_cast<Tick>(seconds * kTicksPerSecond));
  net.SealAllChunks();
  merger.Finish();

  ShardedStreamRun run;
  run.executed = sim.executed_count();
  run.merge_hash = merger.hash();
  run.emitted = merger.emitted();
  run.dropped = net.entries_dropped();
  run.peak_buffered = merger.peak_buffered();
  run.seq_gaps = net.premerge_seq_gaps();
  if (pipeline != nullptr) {
    run.fit = pipeline->Solve();
  }
  return run;
}

struct BatchRun {
  uint64_t executed = 0;
  uint64_t merge_hash = 0;
  size_t merged_entries = 0;
  std::vector<MergedEntry> merged;
};

BatchRun RunBatchRelay(size_t threads, size_t motes, double seconds,
                       size_t log_capacity) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = threads;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);
  ScaleNetworkConfig cfg;
  cfg.motes = motes;
  cfg.log_capacity = log_capacity;
  cfg.batch_log_charging = true;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(static_cast<Tick>(seconds * kTicksPerSecond));

  BatchRun run;
  run.executed = sim.executed_count();
  EXPECT_EQ(net.entries_dropped(), 0u)
      << "batch baseline dropped entries; grow log_capacity";
  run.merged = MergeTraces(CollectNodeTraces(net));
  run.merged_entries = run.merged.size();
  run.merge_hash = MergedTraceHash(run.merged);
  return run;
}

TEST(StreamingCollectionTest, StreamedRunMatchesBatchRunExactly) {
  // The golden-hash equivalence proof: same workload, batch collection vs
  // streamed collection (small bounded rings, barrier seals, online
  // merge). Event sequence and merged fingerprint must both be identical
  // — streaming changes where bytes live, never what is simulated or what
  // the analysis sees.
  BatchRun batch = RunBatchRelay(1, 64, 1.5, 1 << 16);
  ASSERT_GT(batch.merged_entries, 1000u);

  StreamingPipeline pipeline;
  ShardedStreamRun streamed =
      RunStreamedRelay(1, 64, 1.5, 512, ScaleTopology::kChain, 1, &pipeline);
  EXPECT_EQ(streamed.dropped, 0u);
  EXPECT_EQ(streamed.seq_gaps, 0u);
  EXPECT_EQ(streamed.executed, batch.executed);
  EXPECT_EQ(streamed.emitted, batch.merged_entries);
  EXPECT_EQ(streamed.merge_hash, batch.merge_hash);

  // Bounded resident state: the merger never held anything close to the
  // whole trace (it drains every window).
  EXPECT_LT(streamed.peak_buffered, batch.merged_entries / 4);

  // The merged stream fed the streaming regression online; its solution
  // must bitwise-match the regression over the batch-merged stream.
  StreamingPipeline batch_pipeline;
  for (const MergedEntry& m : batch.merged) {
    batch_pipeline.Add(m.entry);
  }
  PipelineResult batch_fit = batch_pipeline.Solve();
  ASSERT_EQ(streamed.fit.ok, batch_fit.ok);
  ASSERT_EQ(streamed.fit.coefficients.size(), batch_fit.coefficients.size());
  for (size_t i = 0; i < batch_fit.coefficients.size(); ++i) {
    EXPECT_EQ(streamed.fit.coefficients[i], batch_fit.coefficients[i])
        << "coefficient " << i;
  }
}

TEST(StreamingCollectionTest, ChunkSealOrderingAtWindowBarriers) {
  // Chunks must be sealed at window barriers in a well-formed order:
  // per-node seqs consecutive from 0 (the builders count every gap), no
  // chunk empty and no seal call wasted on an idle mote; and each barrier
  // T must emit exactly the window's entries — every entry logged in
  // [previous barrier, T), in merge order, per-node logs monotone. (The
  // run is 0.5 simulated seconds, far from a 32-bit wrap, so raw
  // timestamps compare directly.)
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 4;
  sim_cfg.threads = 2;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);

  // Written by the consumer thread; read on the coordinator only after a
  // Drain, which orders the two.
  std::vector<MergedEntry> emitted;
  StreamingTraceMerger merger(
      [&emitted](const MergedEntry& m) { emitted.push_back(m); });
  EmissionPipeline emission(&merger);
  ScaleNetworkConfig cfg;
  cfg.motes = 16;
  cfg.log_capacity = 512;
  cfg.batch_log_charging = true;
  cfg.emission_pipeline = &emission;
  ScaleNetwork net(&sim, &fabric, cfg);

  // Registered after ScaleNetwork's hand-off hook (hooks run in
  // registration order): draining here makes the window's emission
  // complete before it is stamped with its barrier.
  std::vector<Tick> barrier_of_entry;
  sim.AddBarrierHook([&](Tick window_end) {
    emission.Drain();
    barrier_of_entry.resize(emitted.size(), window_end);
  });

  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(Seconds(0.5));
  Tick final_now = sim.Now();
  net.SealAllChunks();
  merger.Finish();
  barrier_of_entry.resize(emitted.size(), final_now + 1);

  EXPECT_GT(net.chunks_sealed(), 10u);
  EXPECT_EQ(net.premerge_seq_gaps(), 0u);
  EXPECT_EQ(net.premerge_seal_calls(), net.chunks_sealed());
  EXPECT_EQ(net.empty_seals_skipped(), 0u);
  EXPECT_EQ(net.entries_dropped(), 0u);

  ASSERT_FALSE(emitted.empty());
  std::map<node_id_t, uint32_t> last_time;
  Tick previous_barrier = 0;
  for (size_t i = 0; i < emitted.size(); ++i) {
    const MergedEntry& m = emitted[i];
    Tick barrier = barrier_of_entry[i];
    if (i > 0 && barrier != barrier_of_entry[i - 1]) {
      previous_barrier = barrier_of_entry[i - 1];
    }
    // Emitted at the first barrier past it, not earlier, not later.
    EXPECT_LT(m.time64, barrier) << "entry " << i;
    EXPECT_GE(m.time64, previous_barrier) << "entry " << i;
    if (i > 0) {
      EXPECT_GE(m.time64, emitted[i - 1].time64) << "entry " << i;
    }
    auto it = last_time.find(m.node);
    if (it != last_time.end()) {
      EXPECT_GE(m.entry.time, it->second) << "node " << m.node;
    }
    last_time[m.node] = m.entry.time;
  }
}

TEST(StreamingCollectionTest, SpillFileRoundTripEqualsInRamMerge) {
  // Run once with batch collection to get the reference merged stream,
  // once streamed with a FileTraceSink forced into many small segments.
  // Reading the spill file back must yield the identical entry sequence.
  BatchRun batch = RunBatchRelay(2, 48, 1.0, 1 << 16);
  std::vector<LogEntry> reference = MergedEntryStream(batch.merged);
  ASSERT_GT(reference.size(), 500u);

  std::string path = ::testing::TempDir() + "/spill_roundtrip.qnto";
  {
    ShardedSimulator::Config sim_cfg;
    sim_cfg.shards = 8;
    sim_cfg.threads = 2;
    sim_cfg.lookahead = Microseconds(512);
    ShardedSimulator sim(sim_cfg);
    MediumFabric fabric(&sim);
    FileTraceSink spill(path, 256);  // Tiny segments: force many spills.
    ASSERT_TRUE(spill.ok());
    StreamingTraceMerger merger(
        [&spill](const MergedEntry& m) { spill.Append(m.entry); });
    EmissionPipeline emission(&merger);
    ScaleNetworkConfig cfg;
    cfg.motes = 48;
    cfg.log_capacity = 512;
    cfg.batch_log_charging = true;
    cfg.emission_pipeline = &emission;
    ScaleNetwork net(&sim, &fabric, cfg);
    net.PowerUp();
    sim.RunFor(Milliseconds(5));
    net.StartApps();
    sim.RunFor(Seconds(1.0));
    net.SealAllChunks();
    merger.Finish();
    EXPECT_EQ(net.entries_dropped(), 0u);
    ASSERT_TRUE(spill.Close());
    EXPECT_GT(spill.segments_written(), 2u);
    EXPECT_EQ(spill.entries_written(), reference.size());
  }

  auto read_back = ReadTraceFile(path);
  ASSERT_TRUE(read_back.has_value());
  ASSERT_EQ(read_back->size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ((*read_back)[i].type, reference[i].type) << "entry " << i;
    ASSERT_EQ((*read_back)[i].res_id, reference[i].res_id) << "entry " << i;
    ASSERT_EQ((*read_back)[i].time, reference[i].time) << "entry " << i;
    ASSERT_EQ((*read_back)[i].icount, reference[i].icount) << "entry " << i;
    ASSERT_EQ((*read_back)[i].payload, reference[i].payload) << "entry " << i;
  }
  std::remove(path.c_str());
}

TEST(StreamingScaleSmokeTest, Grid4096BoundedMemoryDeterministicAt1_2_4Threads) {
  // The bounded-memory determinism smoke past every previous scale test:
  // 4096 motes, grid/multi-sink, streamed collection with small rings.
  // The online merge fingerprint — covering every merged log field — must
  // be thread-count-invariant, with zero drops and zero chunk gaps, and
  // equal to what the deleted coordinator sweep (every mote sealed by the
  // coordinator each window, 1 thread) emitted.
  constexpr uint64_t kSweepExecuted = 203457;
  constexpr uint64_t kSweepEmitted = 372435;
  constexpr uint64_t kSweepHash = 0x17dcfd91a59a683dull;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedStreamRun run =
        RunStreamedRelay(threads, 4096, 0.5, 1024, ScaleTopology::kGrid, 4);
    EXPECT_EQ(run.executed, kSweepExecuted) << threads;
    EXPECT_EQ(run.emitted, kSweepEmitted) << threads;
    EXPECT_EQ(run.merge_hash, kSweepHash) << threads;
    EXPECT_EQ(run.dropped, 0u) << threads;
    EXPECT_EQ(run.seq_gaps, 0u) << threads;
    // Bounded resident state at scale: the merger drained every window.
    EXPECT_LT(run.peak_buffered, run.emitted / 4) << threads;
  }
}

}  // namespace
}  // namespace quanto
