// The many-mote LPL relay workload shared by bench_scale_multihop and the
// sharded-determinism tests: a backbone of always-on relays floods packets
// hop by hop while every other mote duty-cycles its radio with low-power
// listening. This is the heaviest event mix the repo models (timer events,
// radio power transitions, CCA sampling, task dispatch, per-sample
// logging), which is why both the scale benchmark and the determinism
// proof run it.
//
// The builder works against either simulation core:
//  * single-engine: one EventQueue + one Medium, traces kept in RAM;
//  * sharded: a ShardedSimulator + MediumFabric, with mote i assigned to
//    shard i % shard_count — a fixed decomposition, so the simulated
//    behaviour depends on the shard count but never on the thread count.
//    Traces stay in RAM, or stream through an EmissionPipeline.
#ifndef QUANTO_SRC_APPS_SCALE_NETWORK_H_
#define QUANTO_SRC_APPS_SCALE_NETWORK_H_

#include <memory>
#include <vector>

// Deliberate layering exception: streamed collection wires the per-shard
// pre-merge builders (analysis) into the sharded runner's pre-barrier
// phase, and ScaleNetwork is the composition point where the two meet —
// the analysis layer itself stays free of apps/sim types.
#include "src/analysis/emission_pipeline.h"
#include "src/analysis/trace_merge.h"
#include "src/apps/lpl_listener.h"
#include "src/apps/mote.h"
#include "src/apps/relay.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {

// The widest buildable network: mote ids are 1..motes, and the broadcast
// address 0xFFFFFFFF must never be a real node id (a mote numbered
// kBroadcastAddr would alias every broadcast). Build() rejects larger
// configurations outright instead of silently corrupting addressing.
inline constexpr size_t kMaxNetworkMotes = 0xFFFFFFFE;

// How the backbone relays and flood origins are laid out.
enum class ScaleTopology {
  // The original single-sink chain: every 4th mote is a backbone relay,
  // each forwarding to the backbone mote 4 indices later; mote 0
  // originates all floods and the last backbone mote is the sink.
  kChain,
  // Row-major grid: motes form rows of `grid_width`; the first mote of
  // each row is a backbone relay forwarding down the first column. The
  // rows split into `sinks` contiguous bands, each with its own flood
  // origin (the band's first backbone mote) and its own sink (the band's
  // last backbone mote), with origins' flood phases staggered so the
  // bands don't transmit in lockstep. This is the 1000+ mote workload:
  // multiple concurrent flood chains instead of one long one.
  kGrid,
};

struct ScaleNetworkConfig {
  size_t motes = 64;
  // Bound per-mote log memory: the engine, not the archive, is under test.
  size_t log_capacity = 8192;
  Tick lpl_check_interval = Milliseconds(100);
  Tick lpl_cca_listen_time = Milliseconds(9);
  Tick lpl_detection_timeout = Milliseconds(50);
  Tick flood_interval = Milliseconds(250);
  // Window-batched logger self-charging. The sharded constructor flushes
  // the batched charge once per window itself — fused into the shard
  // workers' seal pass when an emission pipeline is attached, on a serial
  // barrier hook otherwise; single-engine callers must call
  // FlushAllCharges() manually if they turn this on.
  bool batch_log_charging = false;
  // Topology. kChain reproduces the original benchmark byte for byte;
  // kGrid adds the grid/multi-sink layout for wide networks.
  ScaleTopology topology = ScaleTopology::kChain;
  // Grid row length (kGrid only). 0 = floor(sqrt(motes)), min 4.
  size_t grid_width = 0;
  // Number of independent flood origin/sink bands (kGrid only, >= 1).
  size_t sinks = 1;
  // Streamed trace collection (sharded builds only). Every mote's logger
  // runs in bounded-archive mode; each shard's worker seals only its
  // *dirty* loggers — marked by the on-first-append hook, so idle motes
  // cost nothing — into a pre-merged time-sorted run during the
  // pre-barrier phase. The coordinator's barrier half hands the window's
  // runs plus the new watermark to this bounded pipeline and releases the
  // shards into the next window; the pipeline's consumer thread performs
  // the k-way merge, watermark emission, hashing and everything behind
  // the merger's emit hook (regression feed, spill) concurrently with
  // simulation. SealAllChunks() drains the queue before returning, so the
  // tail flush precedes the final hash read. Null: every mote keeps its
  // whole trace in RAM for the batch MergeTraces(CollectNodeTraces(net)).
  // A single-engine build has no window barriers to stream behind and
  // aborts at construction when given a pipeline.
  EmissionPipeline* emission_pipeline = nullptr;
  // Record per-window seal/merge/flush timings (and enable builder
  // profiling) for the barrier-latency percentiles in
  // bench_scale_multihop. merge_us is recorded by the emission consumer
  // thread and copied back at SealAllChunks().
  bool profile_barrier = false;
  // Entries per spill-file segment for harnesses that attach a
  // FileTraceSink behind the emit hook (bench --segment-entries). The
  // network itself never opens the spill file — this rides here so the
  // collection knobs live together and every harness agrees on the
  // default. Segment granularity is also index granularity: smaller
  // segments mean finer-grained query skipping at a few more footer
  // bytes per segment (src/analysis/trace_index.h). Spilled *bytes* are
  // unaffected apart from per-segment headers; merged entries, hashes
  // and report output never depend on it.
  size_t segment_entries = 1 << 16;  // FileTraceSink::kDefaultSegmentEntries.
};

class ScaleNetwork {
 public:
  // Sharded build: motes land on sim->queue(i % shards) with the matching
  // fabric medium replica.
  ScaleNetwork(ShardedSimulator* sim, MediumFabric* fabric,
               const ScaleNetworkConfig& config);
  // Single-engine build.
  ScaleNetwork(EventQueue* queue, Medium* medium,
               const ScaleNetworkConfig& config);

  // Backbone relays keep their radio always on; the rest duty-cycle with
  // LPL. Chain: every 4th mote. Grid: the first mote of every row.
  bool IsBackbone(size_t i) const { return i % backbone_stride_ == 0; }

  // The configured number of flood origins (1 for kChain).
  size_t origin_count() const { return origins_.size(); }

  // Phase 1: power the backbone radios. Run ~5 ms of simulation before
  // StartApps() so the radios finish their power-up sequences.
  void PowerUp();
  // Phase 2: start the relay/LPL apps and the origin's periodic flood
  // (one packet every flood_interval, labelled with activity 9).
  void StartApps();

  size_t size() const { return motes_.size(); }
  Mote& mote(size_t i) { return *motes_[i]; }
  const Mote& mote(size_t i) const { return *motes_[i]; }

  uint64_t lpl_wakeups() const;
  uint64_t entries_logged() const;
  // Entries rejected by full RAM buffers, summed over motes. Must be 0
  // for a streamed run's merge to equal the batch merge.
  uint64_t entries_dropped() const;

  // Flushes the batched logger self-charge of every mote that owes some —
  // the *serial* flush of batch-collected runs (the per-window barrier
  // hook of a sharded build without an emission pipeline, or a manual
  // call on a single engine). It visits only the loggers that accumulated
  // cycles since the last flush — marked through QuantoLogger's
  // charge-dirty hook, so an idle mote costs the window flush nothing.
  // Each shard's dirty loggers flush in ascending node-id order; a flush
  // only ever touches its own mote's queue, so cross-shard order cannot
  // affect the simulation. With an emission pipeline the flush is instead
  // *fused* into the per-shard pre-barrier seal pass
  // (ShardRunBuilder::BuildRun with flush_charges) and this function is
  // never hooked — see fused_charge_flush().
  void FlushAllCharges();

  // The fused worker-side flush is active: no serial flush hook is
  // registered, and each shard's window task clears charge + seal in one
  // sorted dirty pass.
  bool fused_charge_flush() const { return fused_charge_flush_; }

  // Loggers visited by charge-flush rounds, cumulatively, summed across
  // the serial flush (FlushAllCharges) and the fused per-shard passes. A
  // healthy run has visits ≪ windows × motes; a streamed (fused) and a
  // batch (serial) run of one workload have *equal* visits — one pass per
  // dirty mote per window (tests/charge_flush_test.cc pins it).
  uint64_t charge_flush_visits() const;
  uint64_t charge_flush_windows() const { return charge_flush_windows_; }
  // FlushCpuCharge calls that actually handed cycles to a CPU, summed
  // over motes.
  uint64_t charge_flushes() const;

  // Construction arena stats (bytes reserved/allocated, allocation and
  // slab counts) — the bench records them next to construct_ms.
  const Arena& construction_arena() const { return arena_; }

  // Tail flush of a streamed run: seals every still-dirty logger, releases
  // the builders' held-back boundary entries through the emission
  // pipeline and drains it, so the merger's hash and everything behind
  // its emit hook are final when this returns. Call it once after the
  // run. Returns entries sealed (0 on a batch-collected run).
  size_t SealAllChunks();

  // --- Streamed collection introspection --------------------------------------
  // Runs stream through the emission pipeline (one pre-merge builder per
  // shard); false on batch-collected runs.
  bool premerge_active() const { return !builders_.empty(); }
  size_t premerge_shards() const { return builders_.size(); }
  const ShardRunBuilder& premerge_builder(size_t shard) const {
    return *builders_[shard];
  }
  // Summed over shards / motes.
  uint64_t premerge_seal_calls() const;
  uint64_t premerge_seq_gaps() const;
  uint64_t chunks_sealed() const;
  uint64_t empty_seals_skipped() const;
  // Per-window profiling samples (profile_barrier only): max per-shard
  // run-build time, and the merge + watermark-emission time measured on
  // the emission consumer thread (copied back by SealAllChunks).
  const std::vector<uint32_t>& seal_us_samples() const {
    return seal_us_samples_;
  }
  const std::vector<uint32_t>& merge_us_samples() const {
    return merge_us_samples_;
  }
  // Per-window charge-flush time (profile_barrier only). Fused flush: max
  // per-shard fused-pass time, recorded at the hand-off hook like
  // seal_us — a subset of that window's seal_us, running ∥ pre-barrier.
  // Serial flush: FlushAllCharges' own duration on the coordinator — a
  // subset of that window's barrier_us.
  const std::vector<uint32_t>& flush_us_samples() const {
    return flush_us_samples_;
  }

 private:
  void Build(const std::vector<EventQueue*>& queues,
             const std::vector<Medium*>& media);
  // Coordinator half of the streamed window barrier: submits every built
  // run plus the watermark to the emission pipeline and recycles the run
  // buffers the consumer has retired back to the builders.
  // `record_profile` is false for the end-of-run tail flush, which is
  // not a window and would skew the per-window percentiles.
  void HandOffRuns(Tick window_end, bool record_profile);
  // Next backbone index in this origin band, or motes_.size() when `i` is
  // the band's sink.
  size_t NextBackbone(size_t i) const;
  void StartFlood(size_t origin_index, Tick initial_delay);

  // Per-shard charge-dirty list: the loggers that accumulated batched
  // self-charge since the last window flush, in mark order. The shard's
  // worker appends (through the logger hook) while it runs the window;
  // the coordinator swaps the list out at the barrier — the same
  // ownership hand-off the window barrier already orders for sealing.
  struct ChargeDirtyList {
    std::vector<QuantoLogger*> loggers;
  };
  static void MarkChargeDirtyHook(void* ctx, QuantoLogger* logger) {
    static_cast<ChargeDirtyList*>(ctx)->loggers.push_back(logger);
  }

  ScaleNetworkConfig config_;
  // Construction arena backing every mote's component graph (and the app
  // objects). Declared FIRST so it destructs LAST: the ArenaPtr members
  // below no-op their deletes, then the arena runs the registered
  // destructors in reverse allocation order.
  Arena arena_;
  size_t backbone_stride_ = 4;
  size_t band_motes_ = 0;  // Motes per origin band (kGrid; 0 = one band).
  std::vector<size_t> origins_;
  std::vector<ArenaPtr<Mote>> motes_;
  std::vector<ArenaPtr<RelayApp>> relays_;
  std::vector<ArenaPtr<LplListenerApp>> listeners_;
  // Streamed collection: one pre-merge builder per shard (empty on
  // batch-collected runs).
  std::vector<std::unique_ptr<ShardRunBuilder>> builders_;
  // One list per shard (serial dirty flush only: batch_log_charging on a
  // run whose flush is not fused into the builders' seal pass).
  std::vector<ChargeDirtyList> charge_dirty_;
  std::vector<QuantoLogger*> charge_flush_scratch_;
  bool fused_charge_flush_ = false;
  uint64_t charge_flush_visits_ = 0;
  uint64_t charge_flush_windows_ = 0;
  std::vector<uint32_t> seal_us_samples_;
  std::vector<uint32_t> merge_us_samples_;
  std::vector<uint32_t> flush_us_samples_;
};

}  // namespace quanto

#endif  // QUANTO_SRC_APPS_SCALE_NETWORK_H_
