#include "src/analysis/trace_index.h"

#include <algorithm>
#include <cstring>

#include "src/analysis/trace_io.h"  // Container geometry for validation.
#include "src/hw/sinks.h"

namespace quanto {

namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

bool ValidContainerVersion(uint16_t v) {
  return v == kTraceVersionLegacy || v == kTraceVersionWide ||
         v == kTraceVersionWideNode;
}

}  // namespace

bool SegmentFooter::MayContainOrigin(node_id_t origin) const {
  if (!(origin_filter & (uint64_t{1} << (origin % 64)))) {
    return false;  // A clear filter bit proves absence.
  }
  if (origin == kBroadcastAddr) {
    return true;  // Broadcast is excluded from the min/max range.
  }
  return origin >= origin_min && origin <= origin_max;
}

std::map<act_t, ActivitySummary> TraceIndex::ActivityTotals() const {
  // The rollup is sorted, so every row goes in at the end hint: linear.
  std::map<act_t, ActivitySummary> totals;
  for (const auto& [act, row] : activities) {
    totals.emplace_hint(totals.end(), act, row);
  }
  return totals;
}

const ActivitySummary* TraceIndex::FindActivity(act_t label) const {
  auto it = std::lower_bound(
      activities.begin(), activities.end(), label,
      [](const std::pair<act_t, ActivitySummary>& row, act_t value) {
        return row.first < value;
      });
  return it != activities.end() && it->first == label ? &it->second
                                                      : nullptr;
}

std::vector<uint8_t> SerializeTraceIndex(const TraceIndex& index) {
  size_t bytes = kIndexHeaderBytes +
                 index.segments.size() * kSegmentRecordBytes +
                 kRollupCountBytes +
                 index.activities.size() * kActivityRowBytes +
                 kIndexTrailerBytes;
  std::vector<uint8_t> out;
  out.reserve(bytes);
  for (uint8_t m : kIndexMagic) {
    out.push_back(m);
  }
  PutU16(out, kIndexVersion);
  PutU16(out, 0);  // Reserved.
  PutU32(out, static_cast<uint32_t>(index.segments.size()));
  PutU64(out, index.total_entries);
  for (const SegmentFooter& seg : index.segments) {
    PutU64(out, seg.offset);
    PutU64(out, seg.length);
    PutU32(out, seg.entries);
    PutU16(out, seg.container_version);
    PutU16(out, 0);  // Reserved (v1: the segment's activity row count).
    PutU64(out, seg.time_min64);
    PutU64(out, seg.time_max64);
    PutU32(out, seg.origin_min);
    PutU32(out, seg.origin_max);
    PutU64(out, seg.origin_filter);
  }
  PutU64(out, index.activities.size());
  for (const auto& [act, row] : index.activities) {
    PutU64(out, act);
    PutU64(out, row.entries);
    PutU64(out, row.pulses);
  }
  PutU64(out, static_cast<uint64_t>(bytes));
  for (uint8_t m : kIndexEndMagic) {
    out.push_back(m);
  }
  return out;
}

uint64_t ProbeIndexTrailer(const uint8_t* tail, uint64_t file_size) {
  if (file_size < kIndexTrailerBytes ||
      std::memcmp(tail + 8, kIndexEndMagic, 4) != 0) {
    return 0;
  }
  uint64_t index_bytes = GetU64(tail);
  // The block must at least frame itself, and must leave room for the
  // smallest possible data region (one empty container header).
  if (index_bytes < kIndexHeaderBytes + kIndexTrailerBytes ||
      index_bytes > file_size ||
      file_size - index_bytes < kTraceContainerHeaderBytes) {
    return 0;
  }
  return index_bytes;
}

std::optional<TraceIndex> ParseTraceIndex(const uint8_t* data, size_t size,
                                          uint64_t data_bytes) {
  if (size < kIndexHeaderBytes + kIndexTrailerBytes ||
      std::memcmp(data, kIndexMagic, 4) != 0) {
    return std::nullopt;
  }
  TraceIndex index;
  index.version = GetU16(data + 4);
  bool v1 = index.version == kIndexVersionSegmentRows;
  if (!v1 && index.version != kIndexVersion) {
    return std::nullopt;
  }
  uint32_t segment_count = GetU32(data + 8);
  index.total_entries = GetU64(data + 12);
  size_t at = kIndexHeaderBytes;
  size_t records_end = size - kIndexTrailerBytes;
  if (segment_count > (records_end - at) / kSegmentRecordBytes) {
    return std::nullopt;
  }
  index.segments.reserve(segment_count);
  // v1 only: every segment's rows, folded into the rollup at the end.
  std::vector<std::pair<act_t, ActivitySummary>> segment_rows;
  uint64_t next_offset = 0;
  uint64_t entry_sum = 0;
  // The previous non-empty segment's time_max64, once there is one.
  std::optional<uint64_t> prev_max;
  for (uint32_t i = 0; i < segment_count; ++i) {
    if (records_end - at < kSegmentRecordBytes) {
      return std::nullopt;
    }
    const uint8_t* p = data + at;
    SegmentFooter seg;
    seg.offset = GetU64(p);
    seg.length = GetU64(p + 8);
    seg.entries = GetU32(p + 16);
    seg.container_version = GetU16(p + 20);
    uint16_t act_rows = GetU16(p + 22);
    seg.time_min64 = GetU64(p + 24);
    seg.time_max64 = GetU64(p + 32);
    seg.origin_min = GetU32(p + 40);
    seg.origin_max = GetU32(p + 44);
    seg.origin_filter = GetU64(p + 48);
    at += kSegmentRecordBytes;
    if (!v1 && act_rows != 0) {
      return std::nullopt;  // Reserved in v2.
    }
    if (records_end - at <
        static_cast<size_t>(act_rows) * kSegmentActivityRowBytes) {
      return std::nullopt;
    }
    uint64_t row_entries = 0;
    for (uint16_t r = 0; r < act_rows; ++r) {
      const uint8_t* q = data + at;
      act_t act = GetU64(q);
      ActivitySummary row;
      row.entries = GetU32(q + 8);
      row.pulses = GetU64(q + 12);
      // Rows are written in ascending label order; enforce it.
      if (r > 0 && act <= segment_rows.back().first) {
        return std::nullopt;
      }
      row_entries += row.entries;
      segment_rows.emplace_back(act, row);
      at += kSegmentActivityRowBytes;
    }
    // Structural validity: segments tile [0, data_bytes) contiguously and
    // each length matches its own header-derived size exactly.
    if (!ValidContainerVersion(seg.container_version) ||
        seg.offset != next_offset ||
        seg.length != kTraceContainerHeaderBytes +
                          static_cast<uint64_t>(seg.entries) *
                              TraceContainerEntryBytes(seg.container_version) ||
        seg.length > data_bytes - seg.offset) {
      return std::nullopt;
    }
    if (row_entries > seg.entries ||
        (seg.entries > 0 && seg.time_min64 > seg.time_max64)) {
      return std::nullopt;
    }
    // Unwrapped time never decreases along the stream, so neither do the
    // non-empty segments' ranges: time-range reads rely on it to treat a
    // slice as one contiguous run.
    if (seg.entries > 0) {
      if (prev_max.has_value() && seg.time_min64 < *prev_max) {
        return std::nullopt;
      }
      prev_max = seg.time_max64;
    }
    next_offset = seg.offset + seg.length;
    entry_sum += seg.entries;
    index.segments.push_back(seg);
  }
  if (next_offset != data_bytes || entry_sum != index.total_entries) {
    return std::nullopt;
  }
  if (v1) {
    // One in-memory shape for both versions: fold the per-segment rows.
    std::stable_sort(
        segment_rows.begin(), segment_rows.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [act, row] : segment_rows) {
      if (index.activities.empty() || index.activities.back().first != act) {
        index.activities.emplace_back(act, row);
      } else {
        ActivitySummary& sum = index.activities.back().second;
        sum.entries += row.entries;
        sum.pulses += row.pulses;
      }
    }
  } else {
    if (records_end - at < kRollupCountBytes) {
      return std::nullopt;
    }
    uint64_t rows = GetU64(data + at);
    at += kRollupCountBytes;
    if (rows != (records_end - at) / kActivityRowBytes) {
      return std::nullopt;
    }
    index.activities.reserve(rows);
    uint64_t row_entries = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      const uint8_t* q = data + at;
      act_t act = GetU64(q);
      ActivitySummary row;
      row.entries = GetU64(q + 8);
      row.pulses = GetU64(q + 16);
      // One row per label, ascending; entries are a subset of the stream.
      if ((r > 0 && act <= index.activities.back().first) ||
          row.entries > index.total_entries - row_entries) {
        return std::nullopt;
      }
      row_entries += row.entries;
      index.activities.emplace_back(act, row);
      at += kActivityRowBytes;
    }
  }
  if (at != records_end) {
    return std::nullopt;
  }
  // Trailer self-reference.
  if (GetU64(data + records_end) != size ||
      std::memcmp(data + records_end + 8, kIndexEndMagic, 4) != 0) {
    return std::nullopt;
  }
  return index;
}

void TraceIndexBuilder::Add(const LogEntry& e) {
  uint64_t t64 = time_.Unwrap(e);
  if (cur_.count == 0) {
    cur_.time_min64 = t64;
  }
  cur_.time_max64 = t64;
  ++cur_.count;
  // Pulses since the previous entry accrue to the activity that was
  // current *before* this entry (wrap-aware 32-bit delta).
  if (has_icount_) {
    uint32_t delta = e.icount - last_icount_;
    if (delta != 0) {
      rollup_[cpu_act_].pulses += delta;
    }
  }
  last_icount_ = e.icount;
  has_icount_ = true;
  if (IsActivityEntry(e)) {
    // A copy: LogEntry is packed, and the lookup binds a reference.
    act_t label = e.payload;
    rollup_[label].entries += 1;
    node_id_t origin = ActivityOrigin(label);
    cur_.origin_filter |= uint64_t{1} << (origin % 64);
    if (origin != kBroadcastAddr) {
      if (origin < cur_.origin_min) {
        cur_.origin_min = origin;
      }
      if (origin > cur_.origin_max) {
        cur_.origin_max = origin;
      }
    }
    if (EntryType(e) == LogEntryType::kActivitySet && e.res_id == kSinkCpu) {
      cpu_act_ = label;
    }
  }
}

void TraceIndexBuilder::FinishSegment(uint64_t offset, uint64_t length,
                                      uint16_t version, uint32_t entries) {
  SegmentFooter seg;
  seg.offset = offset;
  seg.length = length;
  seg.entries = entries;
  seg.container_version = version;
  if (cur_.count > 0) {
    seg.time_min64 = cur_.time_min64;
    seg.time_max64 = cur_.time_max64;
  }
  seg.origin_min = cur_.origin_min;
  seg.origin_max = cur_.origin_max;
  seg.origin_filter = cur_.origin_filter;
  index_.total_entries += entries;
  index_.segments.push_back(seg);
  cur_ = CurrentSegment{};
}

const TraceIndex& TraceIndexBuilder::Finish() {
  index_.activities.assign(rollup_.begin(), rollup_.end());
  std::sort(index_.activities.begin(), index_.activities.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return index_;
}

std::map<act_t, ActivitySummary> TraceIndexBuilder::ScanActivityTotals(
    const std::vector<LogEntry>& entries) {
  TraceIndexBuilder builder;
  for (const LogEntry& e : entries) {
    builder.Add(e);
  }
  return std::map<act_t, ActivitySummary>(builder.rollup_.begin(),
                                          builder.rollup_.end());
}

}  // namespace quanto
