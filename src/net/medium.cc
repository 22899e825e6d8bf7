#include "src/net/medium.h"

#include <algorithm>
#include <chrono>

#include "src/sim/sharded_sim.h"

namespace quanto {

Medium::Medium(EventQueue* queue) : queue_(queue) {}

Medium::Medium(EventQueue* queue, MediumFabric* fabric, size_t shard)
    : queue_(queue), fabric_(fabric), shard_(shard) {}

void Medium::Register(MediumClient* client) {
  clients_.push_back(client);
  clients_by_channel_[client->Channel()].push_back(client);
  if (fabric_ != nullptr) {
    fabric_->NoteClientRegistered(shard_, client->Channel());
  }
}

void Medium::ReserveClients(size_t clients, int channel) {
  clients_.reserve(clients_.size() + clients);
  std::vector<MediumClient*>& on_channel = ChannelClients(channel);
  on_channel.reserve(on_channel.size() + clients);
}

void Medium::Unregister(MediumClient* client) {
  clients_.erase(std::remove(clients_.begin(), clients_.end(), client),
                 clients_.end());
  for (auto& [channel, clients] : clients_by_channel_) {
    size_t before = clients.size();
    clients.erase(std::remove(clients.begin(), clients.end(), client),
                  clients.end());
    if (fabric_ != nullptr && clients.size() != before) {
      fabric_->NoteClientUnregistered(shard_, channel);
    }
  }
}

std::vector<MediumClient*>& Medium::ChannelClients(int channel) {
  return clients_by_channel_[channel];
}

void Medium::AddInterference(InterferenceSource* source) {
  interference_.push_back(source);
}

size_t Medium::ActiveTransmissions(int channel) const {
  auto it = busy_count_.find(channel);
  return it != busy_count_.end() ? it->second : 0;
}

bool Medium::EnergyDetected(int channel) const {
  if (ActiveTransmissions(channel) > 0) {
    return true;
  }
  Tick now = queue_->Now();
  for (const InterferenceSource* source : interference_) {
    if (source->EnergyOn(channel, now)) {
      return true;
    }
  }
  return false;
}

bool Medium::BeginTransmit(node_id_t sender, int channel, const Packet& packet,
                           Tick airtime) {
  if (ActiveTransmissions(channel) > 0) {
    // Two simultaneous 802.15.4 frames on one channel: both are lost. The
    // CSMA layer above avoids this in practice; count it and drop.
    ++collisions_;
    return false;
  }
  ++busy_count_[channel];
  ++packets_sent_;
  for (MediumClient* client : ChannelClients(channel)) {
    if (client->NodeId() != sender && client->Listening()) {
      client->OnFrameStart(sender);
    }
  }
  // The one frame allocation for this transmission: the local completion
  // event and every cross-shard delivery closure share it by refcount.
  SharedFrame frame = std::make_shared<const Packet>(packet);
  ++frames_allocated_;
  queue_->ScheduleAfter(airtime, [this, channel, frame] {
    CompleteTransmit(channel, *frame);
  });
  if (fabric_ != nullptr) {
    fabric_->Post(shard_, channel, frame, airtime, queue_->Now());
  }
  return true;
}

void Medium::CompleteTransmit(int channel, const Packet& packet) {
  auto it = busy_count_.find(channel);
  if (it != busy_count_.end() && it->second > 0) {
    --it->second;
  }
  for (MediumClient* client : ChannelClients(channel)) {
    if (client->NodeId() == packet.src || !client->Listening()) {
      continue;
    }
    if (packet.dst != kBroadcastAddr && packet.dst != client->NodeId()) {
      // Radios hear unicast frames for others too (address filtering
      // happens in the radio), so deliver and let the client filter.
    }
    client->OnFrameComplete(packet);
    ++packets_delivered_;
  }
}

void Medium::DeliverRemote(const SharedFrame& frame, int channel,
                           Tick airtime) {
  // A remote frame arriving while this shard's channel is already occupied
  // is corrupted for our listeners (the senders were beyond each other's
  // carrier-sense reach, so the later one never backed off); the earlier
  // frame still delivers, matching the local model where the later
  // transmission simply never airs. The corrupted frame still deposits
  // energy (CCA sees it) for its whole airtime.
  bool collided = ActiveTransmissions(channel) > 0;
  if (collided) {
    ++collisions_;
  }
  ++busy_count_[channel];
  for (MediumClient* client : ChannelClients(channel)) {
    if (client->NodeId() != frame->src && client->Listening()) {
      client->OnFrameStart(frame->src);
    }
  }
  queue_->ScheduleAfter(airtime, [this, channel, frame, collided] {
    FinishRemote(channel, frame, collided);
  });
}

void Medium::FinishRemote(int channel, const SharedFrame& frame,
                          bool collided) {
  auto it = busy_count_.find(channel);
  if (it != busy_count_.end() && it->second > 0) {
    --it->second;
  }
  if (collided) {
    return;
  }
  for (MediumClient* client : ChannelClients(channel)) {
    if (client->NodeId() == frame->src || !client->Listening()) {
      continue;
    }
    client->OnFrameComplete(*frame);
    ++packets_delivered_;
  }
}

// --- MediumFabric -------------------------------------------------------------

MediumFabric::MediumFabric(ShardedSimulator* sim, const Config& config)
    : config_(config) {
  // Conservative lookahead: a frame posted inside a window must never land
  // inside the same window, so the cross-shard latency can never be
  // shorter than the window width.
  if (config_.latency < sim->lookahead()) {
    config_.latency = sim->lookahead();
  }
  size_t shards = sim->shard_count();
  media_.reserve(shards);
  queues_.reserve(shards);
  posts_.resize(shards);
  retired_.resize(shards);
  lane_channel_mask_.assign(shards, 0);
  shard_channel_mask_.assign(shards, 0);
  stats_.resize(shards);
  for (size_t s = 0; s < shards; ++s) {
    queues_.push_back(&sim->queue(s));
    media_.push_back(
        std::unique_ptr<Medium>(new Medium(queues_[s], this, s)));
  }
  sim->AddShardDrainTask([this](size_t shard, Tick window_end) {
    DrainShard(shard, window_end);
  });
  // Registered here, at construction, so the retirement hook runs before
  // everything callers register afterwards (charge flushes, run
  // hand-offs).
  sim->AddBarrierHook(
      [this](Tick window_end) { RetireWindowPosts(window_end); });
}

void MediumFabric::Post(size_t src_shard, int channel,
                        const SharedFrame& frame, Tick airtime, Tick now) {
  // Mailboxes are thread-confined (only the owning shard's worker writes
  // posts_[src_shard] and its lane mask); counters are kept in per-shard
  // slots owned by the drain side, so Post stays synchronization-free.
  posts_[src_shard].push_back(
      CrossPost{now, src_shard, channel, airtime, frame});
  lane_channel_mask_[src_shard] |= uint64_t{1} << (channel & 63);
}

void MediumFabric::DrainShard(size_t dst, Tick barrier_now) {
  std::chrono::steady_clock::time_point t0;
  if (profile_drain_) {
    t0 = std::chrono::steady_clock::now();
  }
  ShardDrainStats& stats = stats_[dst];
  // Release the frames this shard's lane carried last window. Deferred
  // from the retirement hook to here so the shared_ptr releases (and any
  // final Packet destructions) run on the workers, not the coordinator.
  retired_[dst].clear();

  size_t shards = posts_.size();
  std::vector<uint32_t>& cursor = stats.cursor;
  cursor.assign(shards, 0);
  uint64_t dst_mask = shard_channel_mask_[dst];
  size_t remaining = 0;
  for (size_t src = 0; src < shards; ++src) {
    const std::vector<CrossPost>& lane = posts_[src];
    if (src == dst || lane.empty()) {
      cursor[src] = static_cast<uint32_t>(lane.size());
      continue;
    }
    if ((lane_channel_mask_[src] & dst_mask) == 0) {
      // No channel posted in this lane can be one we listen on (a zero
      // AND is exact; mod-64 aliasing only ever forces the per-post path
      // below). One compare dismisses the lane — but the posts still
      // count as skipped wakeups, exactly as the per-post path counts
      // them.
      stats.skipped += lane.size();
      ++stats.lanes_skipped;
      cursor[src] = static_cast<uint32_t>(lane.size());
      continue;
    }
    remaining += lane.size();
  }

  // K-way merge over the participating lanes in (time, src_shard, post
  // order): each lane is already time-sorted, and the ascending-src scan
  // with a strict `<` makes the lowest source shard win time ties. The
  // order depends only on the posts, never on which thread drains, so the
  // per-queue Schedule order and sequence numbers are thread-invariant.
  while (remaining > 0) {
    size_t best = shards;
    Tick best_time = 0;
    for (size_t src = 0; src < shards; ++src) {
      if (cursor[src] >= posts_[src].size()) {
        continue;
      }
      Tick t = posts_[src][cursor[src]].time;
      if (best == shards || t < best_time) {
        best = src;
        best_time = t;
      }
    }
    const CrossPost& post = posts_[best][cursor[best]++];
    --remaining;
    Tick deliver = post.time + config_.latency;
    if (deliver <= barrier_now) {
      // A post at a window's first tick with latency == window width lands
      // exactly on the barrier; push it just past it (deterministic: the
      // barrier time does not depend on the thread count).
      deliver = barrier_now + 1;
    }
    const ChannelInterest* interest = InterestFor(post.channel);
    bool interested =
        interest != nullptr &&
        ((interest->bits[dst / 64] >> (dst % 64)) & 1) != 0;
    if (interested) {
      Medium* medium = media_[dst].get();
      // Refcount bump only: every destination shard shares the immutable
      // frame allocated at transmit time, so a broadcast fanning out to N
      // shards costs zero packet copies here. The closure (pointer +
      // shared_ptr + channel + airtime) stays within the event queue's
      // inline callback buffer — no heap allocation per destination.
      SharedFrame frame = post.frame;
      int channel = post.channel;
      Tick airtime = post.airtime;
      queues_[dst]->Schedule(deliver, [medium, frame, channel, airtime] {
        medium->DeliverRemote(frame, channel, airtime);
      });
      ++stats.scheduled;
    } else {
      ++stats.skipped;
    }
  }

  if (profile_drain_) {
    stats.last_drain_us = static_cast<uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
}

void MediumFabric::RetireWindowPosts(Tick /*window_end*/) {
  // The whole serial residue of the drain: count and retire each consumed
  // lane (the drain tasks left retired_ empty with capacity, so the swap
  // recycles buffers both ways) and reset the lane masks for the next
  // window. No sorting, no scheduling, no frame releases.
  for (size_t s = 0; s < posts_.size(); ++s) {
    stats_[s].cross_posts += posts_[s].size();
    posts_[s].swap(retired_[s]);
    lane_channel_mask_[s] = 0;
  }
  if (profile_drain_) {
    uint32_t max_us = 0;
    for (const ShardDrainStats& stats : stats_) {
      max_us = std::max(max_us, stats.last_drain_us);
    }
    drain_us_samples_.push_back(max_us);
  }
}

void MediumFabric::NoteClientRegistered(size_t shard, int channel) {
  ChannelInterest& interest = interest_[channel];
  if (interest.counts.empty()) {
    interest.counts.resize(media_.size(), 0);
    interest.bits.resize((media_.size() + 63) / 64, 0);
  }
  if (interest.counts[shard]++ == 0) {
    interest.bits[shard / 64] |= uint64_t{1} << (shard % 64);
  }
  shard_channel_mask_[shard] |= uint64_t{1} << (channel & 63);
  if (channel >= 0 && channel < kMaxDenseChannel) {
    // Map nodes are address-stable, so the dense table can cache the
    // pointer for the drain hot path. The entry persists even if every
    // client later unregisters — its bits are then all zero, which the
    // per-post interest check handles.
    if (interest_by_channel_.size() <= static_cast<size_t>(channel)) {
      interest_by_channel_.resize(static_cast<size_t>(channel) + 1, nullptr);
    }
    interest_by_channel_[static_cast<size_t>(channel)] = &interest;
  }
}

void MediumFabric::NoteClientUnregistered(size_t shard, int channel) {
  auto it = interest_.find(channel);
  if (it == interest_.end() || it->second.counts[shard] == 0) {
    return;
  }
  if (--it->second.counts[shard] == 0) {
    it->second.bits[shard / 64] &= ~(uint64_t{1} << (shard % 64));
    // Rebuild the shard's channel mask exactly (another channel may alias
    // the departing one mod 64). Unregister-to-zero is rare — teardown or
    // tests — so the O(channels) rescan is fine.
    uint64_t mask = 0;
    for (const auto& [other_channel, interest] : interest_) {
      if (interest.counts[shard] > 0) {
        mask |= uint64_t{1} << (other_channel & 63);
      }
    }
    shard_channel_mask_[shard] = mask;
  }
}

bool MediumFabric::ShardInterested(size_t shard, int channel) const {
  const ChannelInterest* interest = InterestFor(channel);
  return interest != nullptr &&
         ((interest->bits[shard / 64] >> (shard % 64)) & 1) != 0;
}

uint64_t MediumFabric::packets_sent() const {
  uint64_t total = 0;
  for (const auto& m : media_) {
    total += m->packets_sent();
  }
  return total;
}

uint64_t MediumFabric::packets_delivered() const {
  uint64_t total = 0;
  for (const auto& m : media_) {
    total += m->packets_delivered();
  }
  return total;
}

uint64_t MediumFabric::collisions() const {
  uint64_t total = 0;
  for (const auto& m : media_) {
    total += m->collisions();
  }
  return total;
}

uint64_t MediumFabric::frames_allocated() const {
  uint64_t total = 0;
  for (const auto& m : media_) {
    total += m->frames_allocated();
  }
  return total;
}

uint64_t MediumFabric::cross_posts() const {
  uint64_t total = 0;
  for (const ShardDrainStats& stats : stats_) {
    total += stats.cross_posts;
  }
  return total;
}

uint64_t MediumFabric::scheduled_wakeups() const {
  uint64_t total = 0;
  for (const ShardDrainStats& stats : stats_) {
    total += stats.scheduled;
  }
  return total;
}

uint64_t MediumFabric::skipped_wakeups() const {
  uint64_t total = 0;
  for (const ShardDrainStats& stats : stats_) {
    total += stats.skipped;
  }
  return total;
}

uint64_t MediumFabric::lanes_skipped() const {
  uint64_t total = 0;
  for (const ShardDrainStats& stats : stats_) {
    total += stats.lanes_skipped;
  }
  return total;
}

}  // namespace quanto
