// Segment footer index for spill files: the read-path half of the
// trace-store design.
//
// A FileTraceSink spill is a sequence of self-contained trace containers
// ("segments", docs/TRACE_FORMAT.md). This module defines a trailing
// *index block* that describes every segment — byte extent, entry count,
// unwrapped time range, activity-origin membership — so readers decode
// only the segments a filtered query intersects, plus one file-wide
// per-activity entry/pulse rollup that answers summary queries without
// decoding any segment.
//
// The index is strictly additive: an indexed file is the unindexed file's
// bytes followed by one index block, located through a fixed-size trailer
// at end of file. Readers that predate the index parse the data segments
// and never see it; index-aware readers validate the trailer and block
// and fall back to a linear scan when either is damaged. The layout is
// pinned in docs/TRACE_FORMAT.md ("Segment index"). Writers emit only
// block version 2; the parser also reads version 1, whose per-segment
// activity rows it folds into the same file-wide rollup.
//
// Footer semantics are defined over the *stored* entry stream (the merged
// single-log view quanto_report analyses), so a full scan of the decoded
// entries reproduces every footer exactly:
//  * time_min64/time_max64 — first/last entry timestamp under the global
//    StreamIngestState unwrap of the stream, the same 32 -> 64 bit rule
//    the analysis layer applies. A segment's min64 is therefore the
//    complete unwrap state at its first entry, which is what lets a
//    parallel reader decode segments independently yet byte-identically.
//  * origin_min/origin_max/origin_filter — membership of activity-label
//    origin nodes (ActivityOrigin of activity-typed payloads; the stored
//    stream does not carry the logging node). The filter is a 64-bit
//    Bloom-style bitmap over origin % 64: a clear bit proves absence, a
//    set bit only suggests presence. Broadcast-origin labels set their
//    filter bit but are excluded from the min/max range.
//  * activities (file-wide) — per label: entry count (activity-typed
//    entries carrying the label) and iCount pulses attributed while the
//    label was the CPU's current activity (kActivitySet on the CPU sink
//    switches it; deltas between consecutive entries accrue to the
//    activity current *before* each entry). Pulses × energy_per_pulse is
//    the summary-query energy estimate.
#ifndef QUANTO_SRC_ANALYSIS_TRACE_INDEX_H_
#define QUANTO_SRC_ANALYSIS_TRACE_INDEX_H_

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/analysis/trace_merge.h"  // StreamIngestState: the one unwrap.
#include "src/core/activity.h"
#include "src/core/log_entry.h"

namespace quanto {

// Index block framing (all little-endian; see docs/TRACE_FORMAT.md).
inline constexpr uint8_t kIndexMagic[4] = {'Q', 'N', 'T', 'I'};
inline constexpr uint8_t kIndexEndMagic[4] = {'Q', 'I', 'D', 'X'};
// Version 1 carried activity rows per segment; it is read, never written.
inline constexpr uint16_t kIndexVersionSegmentRows = 1;
// Version 2 carries one file-wide activity rollup; writers emit only this.
inline constexpr uint16_t kIndexVersion = 2;
// magic | u16 version | u16 reserved | u32 segment_count | u64 total_entries.
inline constexpr size_t kIndexHeaderBytes = 4 + 2 + 2 + 4 + 8;
// u64 index_bytes | end magic. Always the last 12 bytes of an indexed file.
inline constexpr size_t kIndexTrailerBytes = 8 + 4;
// One segment record (v1: followed by its activity rows).
inline constexpr size_t kSegmentRecordBytes = 8 + 8 + 4 + 2 + 2 + 8 + 8 + 4 + 4 + 8;
// v1 per-segment activity row: u64 label | u32 entries | u64 pulses.
inline constexpr size_t kSegmentActivityRowBytes = 8 + 4 + 8;
// v2 rollup: u64 row count, then rows of u64 label | u64 entries | u64 pulses.
inline constexpr size_t kRollupCountBytes = 8;
inline constexpr size_t kActivityRowBytes = 8 + 8 + 8;

// Per-activity roll-up across a whole index.
struct ActivitySummary {
  uint64_t entries = 0;  // Activity-typed entries carrying this label.
  uint64_t pulses = 0;   // iCount pulses attributed to this activity.
};

// One segment's footer: what pruning a filtered query uses.
struct SegmentFooter {
  uint64_t offset = 0;  // Byte offset of the segment container in the file.
  uint64_t length = 0;  // Byte length of the segment container.
  uint32_t entries = 0;
  uint16_t container_version = 0;  // v1/v2/v3 of the segment's records.
  uint64_t time_min64 = 0;  // Unwrapped time of the first entry (0 if none).
  uint64_t time_max64 = 0;  // Unwrapped time of the last entry.
  // Activity-origin membership. Empty segments (or segments with no
  // activity entries) carry min > max (the empty-range sentinel: real
  // ranges never reach 0xFFFFFFFF, broadcast being excluded).
  node_id_t origin_min = kBroadcastAddr;
  node_id_t origin_max = 0;
  uint64_t origin_filter = 0;  // Bit (origin % 64) per origin present.

  // True when the footer cannot rule the origin out of the segment.
  bool MayContainOrigin(node_id_t origin) const;
  bool OverlapsTime(uint64_t t0, uint64_t t1) const {
    return entries > 0 && time_min64 <= t1 && time_max64 >= t0;
  }
};

struct TraceIndex {
  uint16_t version = kIndexVersion;  // Block version it was parsed from.
  uint64_t total_entries = 0;
  std::vector<SegmentFooter> segments;
  // The file-wide rollup, sorted by label, one row per label.
  std::vector<std::pair<act_t, ActivitySummary>> activities;

  // The rollup as a map — the footer-only answer to "total entries/pulses
  // per activity".
  std::map<act_t, ActivitySummary> ActivityTotals() const;
  // The label's rollup row, or nullptr when the stream never touched it.
  const ActivitySummary* FindActivity(act_t label) const;
};

// Serializes an index into a version-2 block (header, segment records,
// rollup, trailer); `index.version` is ignored.
std::vector<uint8_t> SerializeTraceIndex(const TraceIndex& index);

// Parses and validates a version-1 or version-2 index block of exactly
// `size` bytes (trailer included). `data_bytes` is the byte length of the
// segment region the index must describe: validation requires the footers
// to tile [0, data_bytes) contiguously, each length to match its
// header-derived size, every count/total to be self-consistent, and the
// non-empty segments' time ranges to be monotone (no time_min64 below the
// previous non-empty segment's time_max64).
// Version-1 rows are folded into the file-wide rollup. Returns nullopt on
// any violation — callers treat that as "no index" and fall back to a
// linear scan, never as a broken file.
std::optional<TraceIndex> ParseTraceIndex(const uint8_t* data, size_t size,
                                          uint64_t data_bytes);

// Probes the last kIndexTrailerBytes of a file (passed as `tail`, with
// `file_size` the whole file's length). Returns the total index block
// size when the trailer is plausible — end magic present and the implied
// block fits between the container header and end of file — else 0.
// Plausible only means "worth parsing": ParseTraceIndex still validates.
uint64_t ProbeIndexTrailer(const uint8_t* tail, uint64_t file_size);

// Accumulates footers over an entry stream, segment by segment: Add()
// every entry in stream order; FinishSegment() when the entries appended
// since the previous finish have been written as one container at
// [offset, offset+length); Finish() once at the end to sort the rollup
// into the index. Global state (the time unwrap, the CPU activity, the
// pulse chain, the rollup) deliberately spans segment boundaries — the
// footers describe one continuous stream cut into containers.
//
// The same accumulator defines the full-scan semantics: ScanActivityTotals
// runs a fresh builder over decoded entries, so "footer totals ==
// full-scan totals" is an identity, not a hope.
class TraceIndexBuilder {
 public:
  void Add(const LogEntry& e);

  // Seals the current segment's footer. `version` is the container
  // version the segment serialized to; `entries` must equal the entries
  // Added since the last FinishSegment.
  void FinishSegment(uint64_t offset, uint64_t length, uint16_t version,
                     uint32_t entries);

  // Entries Added but not yet sealed into a footer.
  uint32_t pending_entries() const { return cur_.count; }

  // Sorts the rollup of every entry Added so far into the index's
  // `activities` and returns the index.
  const TraceIndex& Finish();

  // The shared full-scan definition of the per-activity totals.
  static std::map<act_t, ActivitySummary> ScanActivityTotals(
      const std::vector<LogEntry>& entries);

 private:
  struct CurrentSegment {
    uint32_t count = 0;
    uint64_t time_min64 = 0;
    uint64_t time_max64 = 0;
    node_id_t origin_min = kBroadcastAddr;
    node_id_t origin_max = 0;
    uint64_t origin_filter = 0;
  };

  TraceIndex index_;
  CurrentSegment cur_;
  // Stream-global state, spanning segments.
  StreamIngestState time_;
  std::unordered_map<act_t, ActivitySummary> rollup_;
  act_t cpu_act_ = 0;  // Label 0 ("0:Idle") until the first CPU set.
  uint32_t last_icount_ = 0;
  bool has_icount_ = false;
};

}  // namespace quanto

#endif  // QUANTO_SRC_ANALYSIS_TRACE_INDEX_H_
