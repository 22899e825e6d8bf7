#include "src/analysis/trace_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "src/analysis/trace_io.h"

namespace quanto {

namespace {

// A buffer that grows to the largest request and never shrinks. `new T[n]`
// default-initialises, so growing does not zero memory the caller is about
// to overwrite.
template <typename T>
class GrowBuffer {
 public:
  T* Get(size_t n) {
    if (n > size_) {
      data_.reset(new T[n]);
      size_ = n;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<T[]> data_;
  size_t size_ = 0;
};

// Runs `fn(job, scratch)` for jobs [0, jobs) across `threads` workers,
// each with its own reusable Scratch. Jobs are claimed from a shared
// counter — which segment a worker decodes is scheduling-dependent, but
// every job writes only its own precomputed output slot, so the assembled
// result is not. Stops early (and returns false) once any job fails.
template <typename Scratch>
bool RunSegmentJobs(size_t threads, size_t jobs,
                    const std::function<bool(size_t, Scratch*)>& fn) {
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  auto worker = [&]() {
    Scratch scratch;
    for (;;) {
      size_t job = next.fetch_add(1, std::memory_order_relaxed);
      if (job >= jobs || failed.load(std::memory_order_relaxed)) {
        break;
      }
      if (!fn(job, &scratch)) {
        failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  return !failed.load();
}

size_t ClampThreads(size_t threads, size_t jobs) {
  if (threads == 0) {
    threads = 1;
  }
  return std::min(threads, jobs == 0 ? size_t{1} : jobs);
}

// The unwrap chain state at a segment's first entry, reconstructed from
// its footer: time_min64 *is* that entry's unwrapped time, so the high
// word and the previous-timestamp register follow directly.
StreamIngestState SeedFromFooter(const SegmentFooter& footer) {
  StreamIngestState state;
  state.high = footer.time_min64 & ~uint64_t{0xFFFFFFFF};
  state.prev = static_cast<uint32_t>(footer.time_min64);
  state.first = false;
  return state;
}

// Does a decoded segment agree with its footer's time range? A chain
// seeded by SeedFromFooter unwraps the first entry to time_min64 exactly
// when that entry's u32 time is time_min64's low word; `last` is the
// chain's value at the last entry.
bool FooterTimesHold(const SegmentFooter& footer, const LogEntry* entries,
                     uint64_t last) {
  return entries[0].time == static_cast<uint32_t>(footer.time_min64) &&
         last == footer.time_max64;
}

// The entries of a decoded segment whose unwrapped time lies in [t0, t1].
// The unwrap never decreases, so they are one run, [begin, end).
struct SegmentRun {
  size_t begin = 0;
  size_t end = 0;
};

// Unwraps a decoded, non-empty segment from its footer seed, checks it
// against the footer (FooterTimesHold) and finds its run in [t0, t1].
bool CheckedRun(const SegmentFooter& footer, const LogEntry* entries,
                uint64_t t0, uint64_t t1, SegmentRun* run) {
  StreamIngestState chain = SeedFromFooter(footer);
  size_t below = 0;  // Entries before t0.
  size_t upto = 0;   // Entries at or before t1.
  uint64_t t64 = 0;
  for (uint32_t i = 0; i < footer.entries; ++i) {
    t64 = chain.Unwrap(entries[i]);
    below += t64 < t0;
    upto += t64 <= t1;
  }
  run->begin = below;
  run->end = upto;
  return FooterTimesHold(footer, entries, t64);
}

// Exact entry-level filter (see TraceQuery); `origins` and `activities`
// are the query's lists, pre-sorted.
bool EntryMatches(const TraceQuery& q, const std::vector<node_id_t>& origins,
                  const std::vector<act_t>& activities, const LogEntry& e,
                  uint64_t t64) {
  if (q.has_time_range && (t64 < q.time_min || t64 > q.time_max)) {
    return false;
  }
  if (!origins.empty() &&
      (!IsActivityEntry(e) ||
       !std::binary_search(origins.begin(), origins.end(),
                           ActivityOrigin(e.payload)))) {
    return false;
  }
  // act_t{...}: a copy, since LogEntry is packed and binary_search binds
  // a reference.
  if (!activities.empty() &&
      (!IsActivityEntry(e) ||
       !std::binary_search(activities.begin(), activities.end(),
                           act_t{e.payload}))) {
    return false;
  }
  return true;
}

bool MayContainAnyOrigin(const SegmentFooter& seg,
                         const std::vector<node_id_t>& origins) {
  for (node_id_t origin : origins) {
    if (seg.MayContainOrigin(origin)) {
      return true;
    }
  }
  return false;
}

// Can the footer rule the whole segment out of the query? An activity
// list prunes through `activity_origins`, its labels' origins: a segment
// holding an entry with a label holds an entry from the label's origin.
bool SegmentMayMatch(const TraceQuery& q,
                     const std::vector<node_id_t>& origins,
                     const std::vector<node_id_t>& activity_origins,
                     const SegmentFooter& seg) {
  if (seg.entries == 0) {
    return false;
  }
  if (q.has_time_range && !seg.OverlapsTime(q.time_min, q.time_max)) {
    return false;
  }
  if (!origins.empty() && !MayContainAnyOrigin(seg, origins)) {
    return false;
  }
  if (!q.activities.empty() && !MayContainAnyOrigin(seg, activity_origins)) {
    return false;
  }
  return true;
}

}  // namespace

struct TraceFileReader::DecodeScratch {
  GrowBuffer<uint8_t> bytes;     // One segment container, as read.
  GrowBuffer<LogEntry> entries;  // Its entries, when they are not decoded
                                 // straight into the output.
};

TraceFileReader::TraceFileReader(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    return;
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0 ||
      static_cast<uint64_t>(st.st_size) < kTraceContainerHeaderBytes) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  file_size_ = static_cast<uint64_t>(st.st_size);
  data_bytes_ = file_size_;
  uint8_t tail[kIndexTrailerBytes];
  if (!ReadAt(file_size_ - kIndexTrailerBytes, kIndexTrailerBytes, tail)) {
    index_note_ = "no index trailer";
    return;
  }
  uint64_t index_bytes = ProbeIndexTrailer(tail, file_size_);
  if (index_bytes == 0) {
    index_note_ = "no index trailer";
    return;
  }
  std::vector<uint8_t> block(index_bytes);
  std::optional<TraceIndex> parsed;
  if (ReadAt(file_size_ - index_bytes, index_bytes, block.data())) {
    parsed = ParseTraceIndex(block.data(), index_bytes,
                             file_size_ - index_bytes);
  }
  if (!parsed.has_value()) {
    index_note_ = "index rejected: trailer present but block invalid";
    return;
  }
  index_ = std::move(*parsed);
  has_index_ = true;
  data_bytes_ = file_size_ - index_bytes;
}

TraceFileReader::~TraceFileReader() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool TraceFileReader::ReadAt(uint64_t offset, size_t size,
                             uint8_t* out) const {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::pread(fd_, out + done, size - done,
                        static_cast<off_t>(offset + done));
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool TraceFileReader::DecodeSegment(const SegmentFooter& footer,
                                    DecodeScratch* scratch,
                                    LogEntry* out) const {
  uint8_t* bytes = scratch->bytes.Get(footer.length);
  if (!ReadAt(footer.offset, footer.length, bytes)) {
    return false;
  }
  uint16_t version = 0;
  uint32_t count = 0;
  if (!ParseTraceSegmentHeader(bytes, footer.length, &version, &count) ||
      version != footer.container_version || count != footer.entries) {
    return false;  // Segment contradicts its footer.
  }
  DecodeTraceRecords(version, bytes + kTraceContainerHeaderBytes, count, out);
  return true;
}

std::optional<std::vector<LogEntry>> TraceFileReader::ReadLinear(
    uint64_t* segments) const {
  std::vector<uint8_t> blob(data_bytes_);
  if (!ReadAt(0, data_bytes_, blob.data())) {
    return std::nullopt;
  }
  std::vector<LogEntry> entries;
  size_t offset = 0;
  uint64_t segs = 0;
  while (true) {
    uint16_t version;
    uint32_t count;
    bool parsed = false;
    if (ParseTraceSegmentHeader(blob.data() + offset, blob.size() - offset,
                                &version, &count)) {
      size_t entry_bytes = TraceContainerEntryBytes(version);
      if (blob.size() - offset - kTraceContainerHeaderBytes >=
          static_cast<size_t>(count) * entry_bytes) {
        size_t have = entries.size();
        entries.resize(have + count);
        DecodeTraceRecords(version,
                           blob.data() + offset + kTraceContainerHeaderBytes,
                           count, entries.data() + have);
        offset += kTraceContainerHeaderBytes +
                  static_cast<size_t>(count) * entry_bytes;
        ++segs;
        parsed = true;
      }
    }
    if (!parsed) {
      // Same damaged-index tolerance as DeserializeTrace: a leftover tail
      // that starts an index block is ignored, anything else is a broken
      // dump.
      if (segs > 0 && blob.size() - offset >= 4 &&
          std::memcmp(blob.data() + offset, kIndexMagic, 4) == 0) {
        break;
      }
      return std::nullopt;
    }
    if (offset >= blob.size()) {
      break;
    }
  }
  if (segments != nullptr) {
    *segments = segs;
  }
  return entries;
}

std::optional<std::vector<LogEntry>> TraceFileReader::ReadAll(
    size_t threads, ReadStats* stats) const {
  if (!ok()) {
    return std::nullopt;
  }
  if (!has_index_) {
    uint64_t segs = 0;
    auto entries = ReadLinear(&segs);
    if (entries.has_value() && stats != nullptr) {
      stats->segments_total = segs;
      stats->segments_read = segs;
      stats->entries_decoded = entries->size();
      stats->entries_selected = entries->size();
    }
    return entries;
  }
  const std::vector<SegmentFooter>& segs = index_.segments;
  // Disjoint output ranges: segment i decodes into
  // out[prefix[i], prefix[i] + entries).
  std::vector<uint64_t> prefix(segs.size() + 1, 0);
  for (size_t i = 0; i < segs.size(); ++i) {
    prefix[i + 1] = prefix[i] + segs[i].entries;
  }
  std::vector<LogEntry> out(prefix.back());
  bool decoded = RunSegmentJobs<DecodeScratch>(
      ClampThreads(threads, segs.size()), segs.size(),
      [&](size_t i, DecodeScratch* scratch) {
        return DecodeSegment(segs[i], scratch, out.data() + prefix[i]);
      });
  if (!decoded) {
    return std::nullopt;
  }
  if (stats != nullptr) {
    stats->segments_total = segs.size();
    stats->segments_read = segs.size();
    stats->entries_decoded = out.size();
    stats->entries_selected = out.size();
  }
  return out;
}

std::optional<std::vector<LogEntry>> TraceFileReader::ReadFiltered(
    const TraceQuery& query, size_t threads, ReadStats* stats) const {
  if (!ok()) {
    return std::nullopt;
  }
  std::vector<node_id_t> origins = query.origins;
  std::sort(origins.begin(), origins.end());
  std::vector<act_t> activities = query.activities;
  std::sort(activities.begin(), activities.end());

  if (!has_index_) {
    // Linear fallback: decode everything, filter with the one global
    // unwrap chain (identical to the per-segment seeded chains below —
    // a segment's seed is exactly the chain state at its first entry).
    uint64_t segs = 0;
    auto entries = ReadLinear(&segs);
    if (!entries.has_value()) {
      return std::nullopt;
    }
    std::vector<LogEntry> selected;
    StreamIngestState chain;
    for (const LogEntry& e : *entries) {
      uint64_t t64 = chain.Unwrap(e);
      if (EntryMatches(query, origins, activities, e, t64)) {
        selected.push_back(e);
      }
    }
    if (stats != nullptr) {
      stats->segments_total = segs;
      stats->segments_read = segs;
      stats->entries_decoded = entries->size();
      stats->entries_selected = selected.size();
    }
    return selected;
  }

  if (query.origins.empty() && query.activities.empty()) {
    return ReadTimeSlice(query, threads, stats);
  }
  // Only labels the rollup counts entries for can appear in a segment (a
  // row can exist purely for attributed pulses); the rest prune every
  // segment.
  std::vector<node_id_t> activity_origins;
  for (act_t act : activities) {
    const ActivitySummary* row = index_.FindActivity(act);
    if (row != nullptr && row->entries > 0) {
      activity_origins.push_back(ActivityOrigin(act));
    }
  }
  const std::vector<SegmentFooter>& segs = index_.segments;
  std::vector<size_t> candidates;
  uint64_t pruned_entries = 0;
  for (size_t i = 0; i < segs.size(); ++i) {
    if (SegmentMayMatch(query, origins, activity_origins, segs[i])) {
      candidates.push_back(i);
      pruned_entries += segs[i].entries;
    }
  }
  std::vector<std::vector<LogEntry>> slots(candidates.size());
  bool decoded = RunSegmentJobs<DecodeScratch>(
      ClampThreads(threads, candidates.size()), candidates.size(),
      [&](size_t j, DecodeScratch* scratch) {
        const SegmentFooter& footer = segs[candidates[j]];
        LogEntry* entries = scratch->entries.Get(footer.entries);
        if (!DecodeSegment(footer, scratch, entries)) {
          return false;
        }
        StreamIngestState chain = SeedFromFooter(footer);
        std::vector<LogEntry>& kept = slots[j];
        uint64_t t64 = 0;
        for (uint32_t i = 0; i < footer.entries; ++i) {
          t64 = chain.Unwrap(entries[i]);
          if (EntryMatches(query, origins, activities, entries[i], t64)) {
            kept.push_back(entries[i]);
          }
        }
        return FooterTimesHold(footer, entries, t64);
      });
  if (!decoded) {
    return std::nullopt;
  }
  size_t total = 0;
  for (const std::vector<LogEntry>& kept : slots) {
    total += kept.size();
  }
  std::vector<LogEntry> selected;
  selected.reserve(total);
  for (const std::vector<LogEntry>& kept : slots) {
    selected.insert(selected.end(), kept.begin(), kept.end());
  }
  if (stats != nullptr) {
    stats->segments_total = segs.size();
    stats->segments_read = candidates.size();
    stats->segments_skipped = segs.size() - candidates.size();
    stats->entries_decoded = pruned_entries;
    stats->entries_selected = selected.size();
  }
  return selected;
}

std::optional<std::vector<LogEntry>> TraceFileReader::ReadTimeSlice(
    const TraceQuery& query, size_t threads, ReadStats* stats) const {
  const std::vector<SegmentFooter>& segs = index_.segments;
  uint64_t t0 = query.time_min;
  uint64_t t1 = query.time_max;
  // The segments the range overlaps, in stream order (none when t0 > t1).
  std::vector<size_t> candidates;
  uint64_t candidate_entries = 0;
  for (size_t i = 0; i < segs.size() && t0 <= t1; ++i) {
    if (segs[i].OverlapsTime(t0, t1)) {
      candidates.push_back(i);
      candidate_entries += segs[i].entries;
    }
  }
  // Footer times are monotone across non-empty segments (ParseTraceIndex),
  // so a candidate with candidates on both sides lies wholly inside the
  // range; only the first and last can straddle an end.
  auto straddles = [&](size_t seg) {
    return segs[seg].time_min64 < t0 || segs[seg].time_max64 > t1;
  };
  bool has_head = !candidates.empty() && straddles(candidates.front());
  bool has_tail = candidates.size() > 1 && straddles(candidates.back());
  struct Boundary {
    size_t seg = 0;
    std::unique_ptr<LogEntry[]> entries;  // Default-initialised.
    SegmentRun run;
  };
  std::vector<Boundary> edges;  // The straddling ends, head first.
  if (has_head) {
    edges.push_back(Boundary{candidates.front(), nullptr, {}});
  }
  if (has_tail) {
    edges.push_back(Boundary{candidates.back(), nullptr, {}});
  }
  size_t interior_begin = has_head ? 1 : 0;
  size_t interior_end = candidates.size() - (has_tail ? 1 : 0);

  // Phase 1: decode and trim the boundary segments.
  bool decoded = RunSegmentJobs<DecodeScratch>(
      ClampThreads(threads, edges.size()), edges.size(),
      [&](size_t j, DecodeScratch* scratch) {
        Boundary& b = edges[j];
        const SegmentFooter& footer = segs[b.seg];
        b.entries.reset(new LogEntry[footer.entries]);
        return DecodeSegment(footer, scratch, b.entries.get()) &&
               CheckedRun(footer, b.entries.get(), t0, t1, &b.run);
      });
  if (!decoded) {
    return std::nullopt;
  }

  // Phase 2: size the output exactly; interior segments decode straight
  // into their slots, then the boundary runs are copied into place.
  auto copy_run = [](const Boundary& b, LogEntry* into) {
    std::copy(b.entries.get() + b.run.begin, b.entries.get() + b.run.end,
              into);
  };
  size_t head = has_head ? edges.front().run.end - edges.front().run.begin : 0;
  size_t tail = has_tail ? edges.back().run.end - edges.back().run.begin : 0;
  size_t interior = interior_end - interior_begin;
  std::vector<uint64_t> slot(interior + 1, head);
  for (size_t k = 0; k < interior; ++k) {
    slot[k + 1] = slot[k] + segs[candidates[interior_begin + k]].entries;
  }
  std::vector<LogEntry> out(slot.back() + tail);
  decoded = RunSegmentJobs<DecodeScratch>(
      ClampThreads(threads, interior), interior,
      [&](size_t k, DecodeScratch* scratch) {
        const SegmentFooter& footer = segs[candidates[interior_begin + k]];
        LogEntry* into = out.data() + slot[k];
        SegmentRun run;  // All of it: the footer verified puts it inside.
        return DecodeSegment(footer, scratch, into) &&
               CheckedRun(footer, into, t0, t1, &run);
      });
  if (!decoded) {
    return std::nullopt;
  }
  if (has_head) {
    copy_run(edges.front(), out.data());
  }
  if (has_tail) {
    copy_run(edges.back(), out.data() + slot.back());
  }
  if (stats != nullptr) {
    stats->segments_total = segs.size();
    stats->segments_read = candidates.size();
    stats->segments_skipped = segs.size() - candidates.size();
    stats->entries_decoded = candidate_entries;
    stats->entries_selected = out.size();
  }
  return out;
}

std::optional<std::map<act_t, ActivitySummary>> TraceFileReader::ActivityTotals(
    ReadStats* stats) const {
  if (!ok()) {
    return std::nullopt;
  }
  if (has_index_) {
    if (stats != nullptr) {
      stats->segments_total = index_.segments.size();
      stats->segments_read = 0;
      stats->segments_skipped = index_.segments.size();
    }
    return index_.ActivityTotals();
  }
  uint64_t segs = 0;
  auto entries = ReadLinear(&segs);
  if (!entries.has_value()) {
    return std::nullopt;
  }
  if (stats != nullptr) {
    stats->segments_total = segs;
    stats->segments_read = segs;
    stats->entries_decoded = entries->size();
  }
  return TraceIndexBuilder::ScanActivityTotals(*entries);
}

uint64_t EntryStreamHash(const std::vector<LogEntry>& entries) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const LogEntry& e : entries) {
    mix(e.type, 1);
    mix(e.res_id, 1);
    mix(e.time, 4);
    mix(e.icount, 4);
    mix(e.payload, 8);
  }
  return h;
}

}  // namespace quanto
