#include "src/apps/scale_network.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace quanto {
namespace {

constexpr uint8_t kAmFlood = 0x5C;
constexpr act_id_t kActFlood = 9;

}  // namespace

ScaleNetwork::ScaleNetwork(ShardedSimulator* sim, MediumFabric* fabric,
                           const ScaleNetworkConfig& config)
    : config_(config) {
  std::vector<EventQueue*> queues;
  std::vector<Medium*> media;
  for (size_t s = 0; s < sim->shard_count(); ++s) {
    queues.push_back(&sim->queue(s));
    media.push_back(&fabric->medium(s));
  }
  if (config_.emission_pipeline != nullptr) {
    // Streamed collection: one pre-merge builder per shard, created
    // before Build so the motes' loggers can be wired straight to them.
    builders_.reserve(sim->shard_count());
    for (size_t s = 0; s < sim->shard_count(); ++s) {
      builders_.push_back(std::make_unique<ShardRunBuilder>(s));
      builders_.back()->EnableProfiling(config_.profile_barrier);
    }
  }
  // Fused worker-side charge flush: on a streamed run the window's charge
  // flush rides the per-shard pre-barrier seal pass (one sorted dirty
  // walk doing flush + seal), so no serial flush hook is registered at
  // all — the barrier section keeps only O(shards) hand-off work. A
  // batch-collected run has no seal pass to ride and flushes on a serial
  // barrier hook instead.
  fused_charge_flush_ = config_.batch_log_charging && !builders_.empty();
  Build(queues, media);
  if (config_.batch_log_charging && !fused_charge_flush_) {
    // Registered after the fabric's retirement hook (the fabric registers
    // at construction, before us); the order is fixed per run either way.
    sim->AddBarrierHook([this](Tick) { FlushAllCharges(); });
  }
  if (!builders_.empty()) {
    // Pre-barrier phase, in parallel on the shard workers: seal each
    // shard's dirty loggers into its pre-merged run — flushing each dirty
    // logger's batched self-charge first when the fused path is on.
    // Entries logged by the coordinator's hooks at exactly the barrier
    // time land in the next window's run (the builders' boundary
    // holdback keeps runs sorted either way).
    bool fused = fused_charge_flush_;
    sim->AddShardWindowTask([this, fused](size_t shard, Tick end) {
      builders_[shard]->BuildRun(end, /*flush_charges=*/fused);
    });
    // Coordinator half: hand the shard runs and the watermark to the
    // emission pipeline.
    sim->AddBarrierHook([this, fused](Tick end) {
      if (fused) {
        // Window accounting for the fused flush lives here — once per
        // window, not once per shard; the tail flush (SealAllChunks)
        // deliberately never counts or flushes, matching the serial
        // flush, which only runs from its barrier hook.
        ++charge_flush_windows_;
      }
      HandOffRuns(end, true);
    });
  }
}

ScaleNetwork::ScaleNetwork(EventQueue* queue, Medium* medium,
                           const ScaleNetworkConfig& config)
    : config_(config) {
  if (config_.emission_pipeline != nullptr) {
    // A single engine has no window barriers to seal and emit behind: the
    // pipeline would never see a run and its merger would silently hash
    // an empty trace. Refuse outright.
    std::fprintf(stderr,
                 "ScaleNetwork: an emission pipeline needs a sharded build; "
                 "a single-engine network keeps its traces in RAM\n");
    std::abort();
  }
  Build({queue}, {medium});
}

void ScaleNetwork::Build(const std::vector<EventQueue*>& queues,
                        const std::vector<Medium*>& media) {
  if (config_.motes > kMaxNetworkMotes) {
    // Mote ids are 1..motes; any more and the top id would alias the
    // broadcast address. Refuse outright rather than corrupt addressing.
    std::fprintf(stderr,
                 "ScaleNetwork: %zu motes exceeds the addressable maximum "
                 "%zu (node id 0x%08X is the broadcast address)\n",
                 config_.motes, kMaxNetworkMotes, kBroadcastAddr);
    std::abort();
  }
  if (config_.topology == ScaleTopology::kChain) {
    backbone_stride_ = 4;
    band_motes_ = 0;  // One band spanning the whole network.
    origins_ = {0};
  } else {
    size_t width = config_.grid_width;
    if (width == 0) {
      width = static_cast<size_t>(
          std::sqrt(static_cast<double>(config_.motes)));
    }
    if (width > config_.motes) {
      width = config_.motes;  // A wider row than the network is a chain.
    }
    if (width < 4) {
      width = 4;
    }
    backbone_stride_ = width;
    size_t rows = (config_.motes + width - 1) / width;
    size_t sinks = config_.sinks < 1 ? 1 : config_.sinks;
    if (sinks > rows) {
      sinks = rows;
    }
    size_t rows_per_band = rows / sinks;
    band_motes_ = rows_per_band * width;
    origins_.clear();
    for (size_t k = 0; k < sinks; ++k) {
      origins_.push_back(k * band_motes_);
    }
  }

  size_t shards = queues.size();
  // Bulk reserves: at 16k+ motes the incremental growth of these
  // structures is a measurable slice of construction time (reported as
  // construct_ms by bench_scale_multihop).
  motes_.reserve(config_.motes);
  size_t backbones = (config_.motes + backbone_stride_ - 1) / backbone_stride_;
  relays_.reserve(backbones);
  listeners_.reserve(config_.motes - backbones);
  int radio_channel = Cc2420::Config().channel;
  for (size_t s = 0; s < media.size(); ++s) {
    media[s]->ReserveClients(config_.motes / shards + 1, radio_channel);
  }
  if (config_.batch_log_charging && !fused_charge_flush_) {
    // Serial dirty flush: FlushAllCharges walks these. The fused path
    // needs no charge-dirty lists (and no charge-dirty hooks — one fewer
    // branch per first Append): the builders' seal dirty lists provably
    // cover the same set.
    charge_dirty_.resize(shards);
  }
  for (size_t i = 0; i < config_.motes; ++i) {
    Mote::Config cfg;
    cfg.id = static_cast<node_id_t>(i + 1);
    cfg.log_capacity = config_.log_capacity;
    cfg.log_mode = QuantoLogger::Mode::kRamBuffer;
    cfg.with_oscilloscope = false;
    // Ground-truth probes no scale run ever reads: the pulse-train history
    // grows with every power transition and would dominate memory here.
    cfg.meter.record_history = false;
    cfg.radio.seed = 0xCC2420 + i;
    cfg.batch_log_charging = config_.batch_log_charging;
    cfg.arena = &arena_;
    size_t shard = i % shards;
    if (!builders_.empty()) {
      cfg.trace_sink = builders_[shard].get();
    }
    motes_.push_back(
        MakeArenaPtr<Mote>(&arena_, queues[shard], media[shard], cfg));
    if (!builders_.empty()) {
      // Dirty-list + freelist wiring: the logger marks itself on its
      // shard's builder the first time it logs in a window, and seals
      // into buffers recycled through the shard's pool.
      QuantoLogger& logger = motes_.back()->logger();
      logger.SetChunkPool(&builders_[shard]->pool());
      logger.SetDirtyHook(ShardRunBuilder::MarkDirtyHook,
                          builders_[shard].get());
    }
    if (!charge_dirty_.empty()) {
      // Charge-dirty wiring: the logger marks itself on its shard's list
      // the first time it accrues batched self-charge in a window, so the
      // barrier flush visits exactly the owing loggers.
      motes_.back()->logger().SetChargeDirtyHook(MarkChargeDirtyHook,
                                                 &charge_dirty_[shard]);
    }
  }
}

size_t ScaleNetwork::NextBackbone(size_t i) const {
  size_t next = i + backbone_stride_;
  if (next >= motes_.size()) {
    return motes_.size();
  }
  if (band_motes_ != 0) {
    // The last band absorbs any remainder rows, so clamp the band index.
    size_t last_band = origins_.size() - 1;
    size_t band_i = i / band_motes_;
    size_t band_next = next / band_motes_;
    if (band_i > last_band) {
      band_i = last_band;
    }
    if (band_next > last_band) {
      band_next = last_band;
    }
    if (band_i != band_next) {
      return motes_.size();  // `i` is this band's sink.
    }
  }
  return next;
}

void ScaleNetwork::PowerUp() {
  for (size_t i = 0; i < motes_.size(); ++i) {
    if (IsBackbone(i)) {
      Mote* mote = motes_[i].get();
      mote->radio().PowerOn([mote] { mote->radio().StartListening(); });
    }
  }
}

void ScaleNetwork::StartApps() {
  for (size_t i = 0; i < motes_.size(); ++i) {
    if (!IsBackbone(i)) {
      LplListenerApp::Config cfg;
      cfg.lpl.check_interval = config_.lpl_check_interval;
      cfg.lpl.cca_listen_time = config_.lpl_cca_listen_time;
      cfg.lpl.detection_timeout = config_.lpl_detection_timeout;
      listeners_.push_back(
          MakeArenaPtr<LplListenerApp>(&arena_, motes_[i].get(), cfg));
      listeners_.back()->Start();
      continue;
    }
    // Backbone relays forward the flood to the next backbone mote of
    // their band; each band's last backbone is its sink (next_hop 0).
    RelayApp::Config cfg;
    cfg.am_type = kAmFlood;
    size_t next = NextBackbone(i);
    cfg.next_hop = next < motes_.size() ? static_cast<node_id_t>(next + 1)
                                        : node_id_t{0};
    relays_.push_back(MakeArenaPtr<RelayApp>(&arena_, motes_[i].get(), cfg));
    relays_.back()->Start();
  }

  // Each band's first backbone mote originates a flood packet
  // periodically; origins beyond the first are phase-staggered so the
  // bands don't transmit in lockstep. A band whose origin is also its
  // sink (a single backbone mote) has no relay chain to exercise, so it
  // originates nothing rather than flooding a nonexistent address.
  for (size_t k = 0; k < origins_.size(); ++k) {
    if (NextBackbone(origins_[k]) >= motes_.size()) {
      continue;
    }
    Tick delay = origins_.size() > 1
                     ? static_cast<Tick>(k) *
                           (config_.flood_interval / origins_.size())
                     : 0;
    StartFlood(origins_[k], delay);
  }
}

void ScaleNetwork::StartFlood(size_t origin_index, Tick initial_delay) {
  Mote* origin = motes_[origin_index].get();
  node_id_t first_hop = static_cast<node_id_t>(NextBackbone(origin_index) + 1);
  Tick interval = config_.flood_interval;
  auto flood = [origin, first_hop] {
    origin->cpu().activity().set(origin->Label(kActFlood));
    Packet p;
    p.dst = first_hop;
    p.am_type = kAmFlood;
    p.payload = {0xF1, 0x00, 0x0D};
    origin->am().Send(p);
  };
  if (initial_delay == 0) {
    origin->timers().StartPeriodic(interval, 80, flood);
  } else {
    origin->timers().StartOneShot(initial_delay, 80, [origin, interval,
                                                      flood] {
      origin->timers().StartPeriodic(interval, 80, flood);
    });
  }
}

uint64_t ScaleNetwork::lpl_wakeups() const {
  uint64_t total = 0;
  for (const auto& l : listeners_) {
    total += l->lpl().wakeups();
  }
  return total;
}

uint64_t ScaleNetwork::entries_logged() const {
  uint64_t total = 0;
  for (const auto& m : motes_) {
    total += m->logger().entries_logged();
  }
  return total;
}

uint64_t ScaleNetwork::entries_dropped() const {
  uint64_t total = 0;
  for (const auto& m : motes_) {
    total += m->logger().entries_dropped();
  }
  return total;
}

void ScaleNetwork::FlushAllCharges() {
  std::chrono::steady_clock::time_point start;
  if (config_.profile_barrier) {
    // Serial flush_us: this whole function, on the coordinator — i.e. a
    // subset of the window's barrier_us, unlike the fused flush's
    // worker-side samples. One sample per window on the barrier hook;
    // manual single-engine callers get one per call.
    start = std::chrono::steady_clock::now();
  }
  ++charge_flush_windows_;
  for (ChargeDirtyList& list : charge_dirty_) {
    if (list.loggers.empty()) {
      continue;
    }
    // Take the shard's list (marks made by the flush itself —
    // ChargeCycles can re-enter Append — belong to the next window and
    // land in the fresh list), then flush in ascending node-id order.
    // Mote ids are assigned round-robin across shards, so within one
    // shard ascending node id is ascending mote order; and since a flush
    // only touches its own mote's event queue, cross-shard interleaving
    // cannot affect the simulation.
    charge_flush_scratch_.clear();
    charge_flush_scratch_.swap(list.loggers);
    std::sort(charge_flush_scratch_.begin(), charge_flush_scratch_.end(),
              [](const QuantoLogger* a, const QuantoLogger* b) {
                return a->node() < b->node();
              });
    for (QuantoLogger* logger : charge_flush_scratch_) {
      ++charge_flush_visits_;
      logger->FlushCpuCharge();
    }
  }
  if (config_.profile_barrier) {
    flush_us_samples_.push_back(static_cast<uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
}

size_t ScaleNetwork::SealAllChunks() {
  if (builders_.empty()) {
    return 0;
  }
  // Final flush: seal every still-dirty logger and release the held-back
  // boundary entries (a barrier of ~Tick{0} holds nothing back), then
  // hand the runs off as usual.
  size_t sealed = 0;
  for (const auto& b : builders_) {
    sealed += b->BuildRun(~Tick{0});
  }
  HandOffRuns(~Tick{0}, /*record_profile=*/false);
  // Tail-flush ordering: the final watermark is queued, not yet emitted.
  // Drain blocks until the consumer has merged every submitted window —
  // only then are the hash, the spill bytes and the consumer-side
  // merge_us samples final (and safe to read from this thread).
  config_.emission_pipeline->Drain();
  merge_us_samples_ = config_.emission_pipeline->merge_us_samples();
  return sealed;
}

void ScaleNetwork::HandOffRuns(Tick window_end, bool record_profile) {
  bool profile = config_.profile_barrier && record_profile;
  if (profile) {
    // seal_us is the window's critical-path pre-merge (max across shards,
    // measured on the workers; the window barrier published the writes);
    // flush_us is the fused charge-flush slice of it, max'd the same way.
    uint32_t seal_us = 0;
    uint32_t flush_us = 0;
    for (const auto& b : builders_) {
      seal_us = std::max(seal_us, b->last_build_us());
      flush_us = std::max(flush_us, b->last_flush_us());
    }
    seal_us_samples_.push_back(seal_us);
    if (fused_charge_flush_) {
      flush_us_samples_.push_back(flush_us);
    }
  }
  // The barrier's share of the backend is just this hand-off: move the
  // runs plus the watermark into the bounded queue and release the
  // shards; the consumer thread does the k-way merge and emission
  // concurrently with the next window (and records merge_us there).
  // SubmitWindow only blocks when the consumer is max_depth windows
  // behind (accounted as consumer_stall_us).
  EmissionPipeline* pipe = config_.emission_pipeline;
  std::vector<EmissionPipeline::ShardRun> batch;
  pipe->TakeRetiredBatch(&batch);
  for (const auto& b : builders_) {
    if (b->HasRun()) {
      batch.push_back(EmissionPipeline::ShardRun{
          static_cast<uint32_t>(b->shard()), b->TakeRun()});
    }
  }
  pipe->SubmitWindow(std::move(batch), window_end, profile);
  // Run buffers come back on the consumer's schedule; whatever has
  // retired by now backs upcoming windows (allocation-free once the
  // queue's working set — max_depth windows of runs — has cycled).
  std::vector<MergedEntry> buf;
  for (const auto& b : builders_) {
    if (!pipe->TakeRetiredRun(&buf)) {
      break;
    }
    b->RecycleRunBuffer(std::move(buf));
  }
}

uint64_t ScaleNetwork::charge_flush_visits() const {
  // Serial-flush visits accumulate here; fused-flush visits accumulate on
  // the builders (per-shard, worker-written). At most one of the two is
  // nonzero in any one run, but summing both keeps the accessor honest
  // either way.
  uint64_t total = charge_flush_visits_;
  for (const auto& b : builders_) {
    total += b->charge_flush_visits();
  }
  return total;
}

uint64_t ScaleNetwork::charge_flushes() const {
  uint64_t total = 0;
  for (const auto& m : motes_) {
    total += m->logger().charge_flushes();
  }
  return total;
}

uint64_t ScaleNetwork::premerge_seal_calls() const {
  uint64_t total = 0;
  for (const auto& b : builders_) {
    total += b->seal_calls();
  }
  return total;
}

uint64_t ScaleNetwork::premerge_seq_gaps() const {
  uint64_t total = 0;
  for (const auto& b : builders_) {
    total += b->seq_gaps();
  }
  return total;
}

uint64_t ScaleNetwork::chunks_sealed() const {
  uint64_t total = 0;
  for (const auto& m : motes_) {
    total += m->logger().chunks_sealed();
  }
  return total;
}

uint64_t ScaleNetwork::empty_seals_skipped() const {
  uint64_t total = 0;
  for (const auto& m : motes_) {
    total += m->logger().empty_seals_skipped();
  }
  return total;
}

}  // namespace quanto
