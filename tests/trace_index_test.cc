// The segment index and the indexed read path: footer accumulation,
// serialized block layout (byte-pinned golden), backward/forward
// compatibility, parallel decode identity at 1/2/4 threads, and
// index-pruned filtered queries proven equal to full-scan-then-filter —
// on synthetic streams and on real grid/chain network spills.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/emission_pipeline.h"
#include "src/analysis/trace_index.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"
#include "src/analysis/trace_reader.h"
#include "src/apps/scale_network.h"
#include "src/hw/sinks.h"
#include "src/net/medium.h"
#include "src/sim/sharded_sim.h"

namespace quanto {
namespace {

LogEntry ActEntry(uint32_t time, uint32_t icount, node_id_t origin,
                  act_id_t id, LogEntryType type = LogEntryType::kActivitySet,
                  res_id_t res = kSinkCpu) {
  LogEntry e{};
  e.type = static_cast<uint8_t>(type);
  e.res_id = res;
  e.time = time;
  e.icount = icount;
  e.payload = MakeActivity(origin, id);
  return e;
}

LogEntry PowerEntry(uint32_t time, uint32_t icount, uint64_t payload = 1) {
  LogEntry e{};
  e.type = static_cast<uint8_t>(LogEntryType::kPowerState);
  e.res_id = kSinkLed0;
  e.time = time;
  e.icount = icount;
  e.payload = payload;
  return e;
}

// A merged-stream-shaped synthetic trace: nondecreasing u32 times with one
// deliberate 32-bit wrap, CPU activity switches driving pulse attribution,
// and origins spread far enough apart to give the index something to
// prune. Deterministic by construction.
std::vector<LogEntry> SyntheticStream(size_t n) {
  std::vector<LogEntry> entries;
  entries.reserve(n);
  uint32_t time = 0xFFFF0000u;  // Wraps a few thousand entries in.
  uint32_t icount = 0;
  for (size_t i = 0; i < n; ++i) {
    time += 37;  // u32 arithmetic: wraps on overflow, as a real clock does.
    icount += static_cast<uint32_t>(1 + i % 5);
    node_id_t origin = static_cast<node_id_t>(1 + (i * 257) % 400);
    if (i % 7 == 3) {
      entries.push_back(PowerEntry(time, icount, i % 2));
    } else {
      entries.push_back(ActEntry(time, icount, origin,
                                 static_cast<act_id_t>(1 + i % 13)));
    }
  }
  return entries;
}

void WriteSpill(const std::string& path, const std::vector<LogEntry>& entries,
                size_t segment_entries, bool write_index) {
  FileTraceSink::Options opts;
  opts.segment_entries = segment_entries;
  opts.write_index = write_index;
  FileTraceSink sink(path, opts);
  ASSERT_TRUE(sink.ok());
  for (const LogEntry& e : entries) {
    sink.Append(e);
  }
  ASSERT_TRUE(sink.Close());
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

// The entry-level query semantics, written independently of the reader:
// filtering the full linear stream this way must equal ReadFiltered.
std::vector<LogEntry> FilterFullScan(const std::vector<LogEntry>& all,
                                     const TraceQuery& q) {
  std::vector<node_id_t> origins = q.origins;
  std::vector<act_t> activities = q.activities;
  StreamIngestState chain;
  std::vector<LogEntry> out;
  for (const LogEntry& e : all) {
    uint64_t t64 = chain.Unwrap(e);
    if (q.has_time_range && (t64 < q.time_min || t64 > q.time_max)) {
      continue;
    }
    bool is_activity = EntryType(e) != LogEntryType::kPowerState;
    if (!origins.empty()) {
      bool hit = false;
      for (node_id_t o : origins) {
        hit |= is_activity && ActivityOrigin(e.payload) == o;
      }
      if (!hit) {
        continue;
      }
    }
    if (!activities.empty()) {
      bool hit = false;
      for (act_t a : activities) {
        hit |= is_activity && e.payload == a;
      }
      if (!hit) {
        continue;
      }
    }
    out.push_back(e);
  }
  return out;
}

void ExpectSameEntries(const std::vector<LogEntry>& got,
                       const std::vector<LogEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(EntryStreamHash(got), EntryStreamHash(want));
}

// --- Builder + serialized block -------------------------------------------

void PutLe(std::vector<uint8_t>& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

using ActivityRows = std::vector<std::pair<act_t, ActivitySummary>>;

// A version-1 block — activity rows after each segment record, u32 row
// entries — as the format's version-1 writers laid it out. Writers now
// emit only version 2; this is the parse-compatibility input.
std::vector<uint8_t> SerializeV1Block(const TraceIndex& index,
                                      const std::vector<ActivityRows>& rows) {
  std::vector<uint8_t> out = {'Q', 'N', 'T', 'I'};
  PutLe(out, kIndexVersionSegmentRows, 2);
  PutLe(out, 0, 2);
  PutLe(out, index.segments.size(), 4);
  PutLe(out, index.total_entries, 8);
  for (size_t i = 0; i < index.segments.size(); ++i) {
    const SegmentFooter& seg = index.segments[i];
    PutLe(out, seg.offset, 8);
    PutLe(out, seg.length, 8);
    PutLe(out, seg.entries, 4);
    PutLe(out, seg.container_version, 2);
    PutLe(out, rows[i].size(), 2);
    PutLe(out, seg.time_min64, 8);
    PutLe(out, seg.time_max64, 8);
    PutLe(out, seg.origin_min, 4);
    PutLe(out, seg.origin_max, 4);
    PutLe(out, seg.origin_filter, 8);
    for (const auto& [act, row] : rows[i]) {
      PutLe(out, act, 8);
      PutLe(out, row.entries, 4);
      PutLe(out, row.pulses, 8);
    }
  }
  PutLe(out, out.size() + kIndexTrailerBytes, 8);
  out.insert(out.end(), {'Q', 'I', 'D', 'X'});
  return out;
}

// What every block the parser accepts must satisfy, however it was
// damaged: footers tile [0, data_bytes), entry counts add up, non-empty
// segments' time ranges never go back, and the rollup is one ascending
// row per label counting a subset of the entries.
void ExpectSelfConsistent(const TraceIndex& index, uint64_t data_bytes) {
  uint64_t next = 0;
  uint64_t entries = 0;
  uint64_t prev_max = 0;  // Of the previous non-empty segment.
  for (const SegmentFooter& seg : index.segments) {
    EXPECT_EQ(seg.offset, next);
    uint64_t record_bytes = TraceContainerEntryBytes(seg.container_version);
    EXPECT_EQ(seg.length,
              kTraceContainerHeaderBytes + seg.entries * record_bytes);
    if (seg.entries > 0) {
      EXPECT_LE(seg.time_min64, seg.time_max64);
      EXPECT_GE(seg.time_min64, prev_max);
      prev_max = seg.time_max64;
    }
    next += seg.length;
    entries += seg.entries;
  }
  EXPECT_EQ(next, data_bytes);
  EXPECT_EQ(entries, index.total_entries);
  uint64_t activity_entries = 0;
  for (size_t i = 0; i < index.activities.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(index.activities[i - 1].first, index.activities[i].first);
    }
    activity_entries += index.activities[i].second.entries;
  }
  EXPECT_LE(activity_entries, index.total_entries);
  EXPECT_EQ(index.ActivityTotals().size(), index.activities.size());
}

// Two v3 segments of 32 entries, footers and rollup from the builder.
struct TwoSegmentIndex {
  TraceIndex index;
  std::vector<ActivityRows> segment_rows;  // The same totals, per segment.
  uint64_t data_bytes = 0;
};

TwoSegmentIndex BuildTwoSegmentIndex() {
  TwoSegmentIndex out;
  auto entries = SyntheticStream(64);
  uint64_t seg_len = kTraceContainerHeaderBytes + 32 * 16;
  TraceIndexBuilder builder;
  for (size_t s = 0; s < 2; ++s) {
    std::vector<LogEntry> part(entries.begin() + 32 * s,
                               entries.begin() + 32 * (s + 1));
    for (const LogEntry& e : part) {
      builder.Add(e);
    }
    builder.FinishSegment(s * seg_len, seg_len, 3, 32);
    // Segment 1 alone would lose the pulses carried over from segment 0's
    // last CPU activity; only entry counts are per-segment facts here.
    ActivityRows rows;
    for (const auto& [act, row] : TraceIndexBuilder::ScanActivityTotals(part)) {
      if (row.entries > 0) {
        rows.emplace_back(act, ActivitySummary{row.entries, 0});
      }
    }
    out.segment_rows.push_back(rows);
  }
  out.index = builder.Finish();
  out.data_bytes = 2 * seg_len;
  return out;
}

TEST(TraceIndexTest, BuilderFootersDescribeSegments) {
  TraceIndexBuilder builder;
  // Segment 0: two activity entries, the first switching the CPU to
  // label (5, 2). Pulses between entries accrue to the activity current
  // *before* each entry — label (5, 2) gets the 10 pulses up to entry 2.
  builder.Add(ActEntry(100, 50, 5, 2));
  builder.Add(ActEntry(200, 60, 7, 3, LogEntryType::kActivityAdd,
                       kSinkRadioRx));
  builder.FinishSegment(0, 40, 1, 2);
  // Segment 1: a power entry (no origin), then a wrap in time.
  builder.Add(PowerEntry(300, 65));
  builder.Add(ActEntry(10, 70, 70, 1));  // u32 time wrapped past zero.
  builder.FinishSegment(40, 44, 2, 2);

  const TraceIndex& index = builder.Finish();
  EXPECT_EQ(index.version, kIndexVersion);
  ASSERT_EQ(index.segments.size(), 2u);
  EXPECT_EQ(index.total_entries, 4u);

  const SegmentFooter& s0 = index.segments[0];
  EXPECT_EQ(s0.offset, 0u);
  EXPECT_EQ(s0.length, 40u);
  EXPECT_EQ(s0.entries, 2u);
  EXPECT_EQ(s0.container_version, 1u);
  EXPECT_EQ(s0.time_min64, 100u);
  EXPECT_EQ(s0.time_max64, 200u);
  EXPECT_EQ(s0.origin_min, 5u);
  EXPECT_EQ(s0.origin_max, 7u);
  EXPECT_EQ(s0.origin_filter, (uint64_t{1} << 5) | (uint64_t{1} << 7));
  EXPECT_TRUE(s0.MayContainOrigin(5));
  EXPECT_TRUE(s0.MayContainOrigin(7));
  EXPECT_FALSE(s0.MayContainOrigin(6));    // Range hit, filter bit clear.
  EXPECT_FALSE(s0.MayContainOrigin(200));  // Outside the range.
  EXPECT_FALSE(s0.MayContainOrigin(70));   // Only segment 1 holds it.
  EXPECT_TRUE(s0.OverlapsTime(150, 400));
  EXPECT_FALSE(s0.OverlapsTime(201, 400));

  const SegmentFooter& s1 = index.segments[1];
  // The unwrap chain spans segments: the wrapped entry lands past 2^32.
  EXPECT_EQ(s1.time_min64, 300u);
  EXPECT_EQ(s1.time_max64, (uint64_t{1} << 32) | 10u);
  EXPECT_EQ(s1.origin_min, 70u);
  EXPECT_EQ(s1.origin_max, 70u);
  EXPECT_FALSE(s1.MayContainOrigin(5));

  // The file-wide rollup, sorted by label.
  ASSERT_EQ(index.activities.size(), 3u);
  EXPECT_EQ(index.activities[0].first, MakeActivity(5, 2));
  EXPECT_EQ(index.activities[0].second.entries, 1u);
  // Entry 2's delta (60 - 50) lands on the activity set at entry 1, and
  // the pulse chain carries across the segment cut: the CPU was still on
  // (5, 2) for segment 1's two deltas (5 + 5), though no entry in
  // segment 1 carries the label.
  EXPECT_EQ(index.activities[0].second.pulses, 20u);
  EXPECT_EQ(index.activities[1].first, MakeActivity(7, 3));
  EXPECT_EQ(index.activities[1].second.entries, 1u);
  EXPECT_EQ(index.activities[1].second.pulses, 0u);
  EXPECT_EQ(index.activities[2].first, MakeActivity(70, 1));
  EXPECT_EQ(index.activities[2].second.entries, 1u);
  EXPECT_EQ(index.activities[2].second.pulses, 0u);
  ASSERT_NE(index.FindActivity(MakeActivity(7, 3)), nullptr);
  EXPECT_EQ(index.FindActivity(MakeActivity(7, 4)), nullptr);
}

TEST(TraceIndexTest, GoldenIndexBlockBytes) {
  // The serialized block, byte for byte, for a hand-built one-segment
  // index — pins the layout docs/TRACE_FORMAT.md documents. Any codec
  // change that reshapes the block must show up here.
  TraceIndex index;
  index.total_entries = 2;
  SegmentFooter seg;
  seg.offset = 0;
  seg.length = 0x24;
  seg.entries = 2;
  seg.container_version = 1;
  seg.time_min64 = 0x0102030405060708ull;
  seg.time_max64 = 0x1112131415161718ull;
  seg.origin_min = 5;
  seg.origin_max = 7;
  seg.origin_filter = 0xA0;
  index.segments.push_back(seg);
  index.activities.push_back({MakeActivity(5, 2), ActivitySummary{1, 10}});

  auto blob = SerializeTraceIndex(index);
  std::vector<uint8_t> expected_v2 = {
      // Header: magic, version 2, reserved, 1 segment, 2 entries.
      'Q', 'N', 'T', 'I', 2, 0, 0, 0, 1, 0, 0, 0,
      2, 0, 0, 0, 0, 0, 0, 0,
      // Segment record: offset 0, length 0x24 (v1: 12 + 2 * 12).
      0, 0, 0, 0, 0, 0, 0, 0, 0x24, 0, 0, 0, 0, 0, 0, 0,
      // entries 2, container version 1, reserved 0.
      2, 0, 0, 0, 1, 0, 0, 0,
      // time_min64, time_max64 (little-endian).
      8, 7, 6, 5, 4, 3, 2, 1,
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
      // origin_min 5, origin_max 7, origin_filter 0xA0.
      5, 0, 0, 0, 7, 0, 0, 0, 0xA0, 0, 0, 0, 0, 0, 0, 0,
      // Rollup: 1 row — label (5 << 16 | 2), 1 entry, 10 pulses.
      1, 0, 0, 0, 0, 0, 0, 0,
      2, 0, 5, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
      10, 0, 0, 0, 0, 0, 0, 0,
      // Trailer: block size 120 = 20 + 56 + 8 + 24 + 12, end magic.
      120, 0, 0, 0, 0, 0, 0, 0, 'Q', 'I', 'D', 'X',
  };
  EXPECT_EQ(blob, expected_v2);

  auto parsed = ParseTraceIndex(blob.data(), blob.size(), 0x24);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, 2u);
  EXPECT_EQ(parsed->total_entries, 2u);
  ASSERT_EQ(parsed->segments.size(), 1u);
  EXPECT_EQ(parsed->segments[0].time_min64, seg.time_min64);
  EXPECT_EQ(parsed->segments[0].origin_filter, seg.origin_filter);
  ASSERT_EQ(parsed->activities.size(), 1u);
  EXPECT_EQ(parsed->activities[0].first, MakeActivity(5, 2));
  EXPECT_EQ(parsed->activities[0].second.entries, 1u);
  EXPECT_EQ(parsed->activities[0].second.pulses, 10u);

  // The same index as a version-1 block, as version-1 writers produced
  // it: the parse-compatibility fixture.
  std::vector<uint8_t> fixture_v1 = {
      // Header: magic, version 1, reserved, 1 segment, 2 entries.
      'Q', 'N', 'T', 'I', 1, 0, 0, 0, 1, 0, 0, 0,
      2, 0, 0, 0, 0, 0, 0, 0,
      // Segment record: offset 0, length 0x24 (v1: 12 + 2 * 12).
      0, 0, 0, 0, 0, 0, 0, 0, 0x24, 0, 0, 0, 0, 0, 0, 0,
      // entries 2, version 1, 1 activity row.
      2, 0, 0, 0, 1, 0, 1, 0,
      // time_min64, time_max64 (little-endian).
      8, 7, 6, 5, 4, 3, 2, 1,
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
      // origin_min 5, origin_max 7, origin_filter 0xA0.
      5, 0, 0, 0, 7, 0, 0, 0, 0xA0, 0, 0, 0, 0, 0, 0, 0,
      // Activity row: label (5 << 16 | 2), 1 entry, 10 pulses.
      2, 0, 5, 0, 0, 0, 0, 0, 1, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0,
      // Trailer: block size 108 = 20 + 56 + 20 + 12, end magic.
      108, 0, 0, 0, 0, 0, 0, 0, 'Q', 'I', 'D', 'X',
  };
  EXPECT_EQ(SerializeV1Block(index, {index.activities}), fixture_v1);
  auto old = ParseTraceIndex(fixture_v1.data(), fixture_v1.size(), 0x24);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->version, 1u);
  ASSERT_EQ(old->segments.size(), 1u);
  EXPECT_EQ(old->segments[0].time_max64, seg.time_max64);
  EXPECT_EQ(old->segments[0].origin_max, seg.origin_max);
  // The v1 summary is the sum of its rows.
  auto totals = old->ActivityTotals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[MakeActivity(5, 2)].entries, 1u);
  EXPECT_EQ(totals[MakeActivity(5, 2)].pulses, 10u);
  // Re-serializing a parsed v1 index writes the v2 block.
  EXPECT_EQ(SerializeTraceIndex(*old), expected_v2);
}

TEST(TraceIndexTest, V1RowsFoldIntoTheRollup) {
  TwoSegmentIndex two = BuildTwoSegmentIndex();
  // Give both segments a pulse row for a label neither counts entries of,
  // and one shared label pulses in both: the fold sums per label.
  act_t pulse_only = MakeActivity(999, 1);
  two.segment_rows[0].emplace_back(pulse_only, ActivitySummary{0, 7});
  two.segment_rows[1].emplace_back(pulse_only, ActivitySummary{0, 5});
  auto blob = SerializeV1Block(two.index, two.segment_rows);
  auto parsed = ParseTraceIndex(blob.data(), blob.size(), two.data_bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, kIndexVersionSegmentRows);
  ExpectSelfConsistent(*parsed, two.data_bytes);

  std::map<act_t, ActivitySummary> want;
  for (const ActivityRows& rows : two.segment_rows) {
    for (const auto& [act, row] : rows) {
      want[act].entries += row.entries;
      want[act].pulses += row.pulses;
    }
  }
  auto totals = parsed->ActivityTotals();
  ASSERT_EQ(totals.size(), want.size());
  for (const auto& [act, row] : want) {
    EXPECT_EQ(totals[act].entries, row.entries);
    EXPECT_EQ(totals[act].pulses, row.pulses);
  }
  EXPECT_EQ(totals[pulse_only].pulses, 12u);
  // And the entry counts are the builder's own rollup counts.
  for (const auto& [act, row] : two.index.activities) {
    EXPECT_EQ(totals[act].entries, row.entries);
  }
}

TEST(TraceIndexTest, ParseRejectsCorruptBlocks) {
  TwoSegmentIndex two = BuildTwoSegmentIndex();
  uint64_t data_bytes = two.data_bytes;
  auto v2 = SerializeTraceIndex(two.index);
  auto v1 = SerializeV1Block(two.index, two.segment_rows);
  ASSERT_TRUE(ParseTraceIndex(v2.data(), v2.size(), data_bytes));
  ASSERT_TRUE(ParseTraceIndex(v1.data(), v1.size(), data_bytes));

  auto mutate = [&](const std::vector<uint8_t>& good, size_t at,
                    uint8_t value) {
    auto blob = good;
    blob[at] = value;
    return ParseTraceIndex(blob.data(), blob.size(), data_bytes).has_value();
  };
  for (const auto* good : {&v1, &v2}) {
    SCOPED_TRACE(good == &v1 ? "v1" : "v2");
    EXPECT_FALSE(mutate(*good, 0, 'X'));                   // Magic.
    EXPECT_FALSE(mutate(*good, 4, 9));                     // Version.
    EXPECT_FALSE(mutate(*good, 8, 7));                     // Segment count.
    EXPECT_FALSE(mutate(*good, 12, 99));                   // Total entries.
    EXPECT_FALSE(mutate(*good, 20, 1));                    // Seg 0 offset.
    EXPECT_FALSE(mutate(*good, good->size() - 1, 'x'));    // End magic.
    EXPECT_FALSE(mutate(*good, good->size() - 12, 0xFF));  // Trailer size.
    // Truncation and a lying data_bytes both reject.
    EXPECT_FALSE(
        ParseTraceIndex(good->data(), good->size() - 1, data_bytes));
    EXPECT_FALSE(ParseTraceIndex(good->data(), good->size(), data_bytes - 16));
  }

  // v2 specifics. Segment 0's reserved field (v1's row count) is zero.
  EXPECT_FALSE(mutate(v2, kIndexHeaderBytes + 22, 1));
  size_t rollup = kIndexHeaderBytes + 2 * kSegmentRecordBytes;
  ASSERT_GE(two.index.activities.size(), 2u);
  EXPECT_FALSE(mutate(v2, rollup, 0));  // Row count disagrees with the block.
  // Rows out of order: swap the first two labels.
  {
    auto blob = v2;
    size_t a = rollup + kRollupCountBytes;
    std::swap_ranges(blob.begin() + a, blob.begin() + a + 8,
                     blob.begin() + a + kActivityRowBytes);
    EXPECT_FALSE(ParseTraceIndex(blob.data(), blob.size(), data_bytes));
  }
  // A row counting more entries than the whole stream holds.
  EXPECT_FALSE(mutate(v2, rollup + kRollupCountBytes + 8 + 4, 1));
  // v1: a segment whose rows count more entries than the segment holds.
  EXPECT_FALSE(mutate(v1, kIndexHeaderBytes + kSegmentRecordBytes + 8 + 3,
                      1));
}

TEST(TraceIndexTest, ParseRejectsSegmentTimesGoingBack) {
  // Three segments, the middle one empty (its zero times are no range).
  // Non-empty segments may share a boundary time but never go back, in a
  // v1 or a v2 block.
  auto build = [](uint64_t third_min) {
    TraceIndex index;
    uint64_t offset = 0;
    auto add = [&](uint32_t entries, uint64_t t0, uint64_t t1) {
      SegmentFooter seg;
      seg.offset = offset;
      seg.length = kTraceContainerHeaderBytes + entries * 16;
      seg.entries = entries;
      seg.container_version = 3;
      seg.time_min64 = t0;
      seg.time_max64 = t1;
      offset += seg.length;
      index.total_entries += entries;
      index.segments.push_back(seg);
    };
    add(4, 100, (uint64_t{1} << 32) | 200);
    add(0, 0, 0);
    add(4, third_min, (uint64_t{1} << 32) | 900);
    return std::make_pair(index, offset);
  };
  for (bool v1 : {true, false}) {
    SCOPED_TRACE(v1 ? "v1" : "v2");
    auto parses = [&](uint64_t third_min) {
      auto [index, data_bytes] = build(third_min);
      auto blob = v1 ? SerializeV1Block(index, std::vector<ActivityRows>(3))
                     : SerializeTraceIndex(index);
      return ParseTraceIndex(blob.data(), blob.size(), data_bytes)
          .has_value();
    };
    EXPECT_TRUE(parses((uint64_t{1} << 32) | 300));
    EXPECT_TRUE(parses((uint64_t{1} << 32) | 200));  // A shared time.
    EXPECT_FALSE(parses((uint64_t{1} << 32) | 199));
    EXPECT_FALSE(parses(300));  // The low word alone is not the time.
  }
}

TEST(TraceIndexTest, ParseSurvivesEveryTruncationAndByteFlip) {
  // Deterministic mutation sweep over a small v1 and v2 block: every
  // truncation length and every single-byte flip either rejects or
  // yields a self-consistent index. Run under ASan/UBSan (label
  // traceindex) this is the parser's crash-freedom check.
  TwoSegmentIndex two = BuildTwoSegmentIndex();
  uint64_t data_bytes = two.data_bytes;
  auto check = [&](const std::vector<uint8_t>& blob, const char* what,
                   size_t at) {
    auto parsed = ParseTraceIndex(blob.data(), blob.size(), data_bytes);
    if (parsed.has_value()) {
      SCOPED_TRACE(std::string(what) + " at " + std::to_string(at));
      ExpectSelfConsistent(*parsed, data_bytes);
    }
    return parsed.has_value();
  };
  // Bytes no flip may survive: the header (bar its reserved field), each
  // segment record's extent/count/version/row-count fields, the v2
  // rollup count and the trailer.
  auto structural = [&](bool v1, size_t size) {
    std::vector<bool> hit(size, false);
    auto mark = [&](size_t from, size_t n) {
      std::fill(hit.begin() + from, hit.begin() + from + n, true);
    };
    mark(0, 6);
    mark(8, kIndexHeaderBytes - 8);
    size_t at = kIndexHeaderBytes;
    for (const ActivityRows& rows : two.segment_rows) {
      mark(at, 24);
      at += kSegmentRecordBytes +
            (v1 ? rows.size() * kSegmentActivityRowBytes : 0);
    }
    if (!v1) {
      mark(at, kRollupCountBytes);
    }
    mark(size - kIndexTrailerBytes, kIndexTrailerBytes);
    return hit;
  };
  for (bool v1 : {true, false}) {
    SCOPED_TRACE(v1 ? "v1" : "v2");
    auto good = v1 ? SerializeV1Block(two.index, two.segment_rows)
                   : SerializeTraceIndex(two.index);
    ASSERT_TRUE(check(good, "intact", 0));
    for (size_t len = 0; len < good.size(); ++len) {
      // An exact-size heap copy, so ASan sees any read past the end.
      std::vector<uint8_t> cut(good.begin(), good.begin() + len);
      EXPECT_FALSE(check(cut, "truncation", len));
    }
    std::vector<bool> must_reject = structural(v1, good.size());
    for (size_t at = 0; at < good.size(); ++at) {
      for (uint8_t mask : {0x01, 0x80, 0xFF}) {
        auto flipped = good;
        flipped[at] ^= mask;
        bool accepted = check(flipped, "flip", at);
        if (must_reject[at]) {
          EXPECT_FALSE(accepted) << "flip " << int{mask} << " at " << at;
        }
      }
    }
  }
}

TEST(TraceIndexTest, ActivityTotalsMatchFullScan) {
  auto entries = SyntheticStream(5000);
  TraceIndexBuilder builder;
  size_t sealed = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    builder.Add(entries[i]);
    if (builder.pending_entries() == 777 || i + 1 == entries.size()) {
      uint32_t count = builder.pending_entries();
      builder.FinishSegment(sealed * 1000, 1000, 3, count);
      ++sealed;
    }
  }
  auto footer_totals = builder.Finish().ActivityTotals();
  auto scan_totals = TraceIndexBuilder::ScanActivityTotals(entries);
  ASSERT_EQ(footer_totals.size(), scan_totals.size());
  for (const auto& [act, row] : scan_totals) {
    auto it = footer_totals.find(act);
    ASSERT_NE(it, footer_totals.end());
    EXPECT_EQ(it->second.entries, row.entries);
    EXPECT_EQ(it->second.pulses, row.pulses);
  }
}

// --- Indexed spill files ---------------------------------------------------

TEST(IndexedSpillTest, IndexedFileIsUnindexedFilePlusBlock) {
  auto entries = SyntheticStream(3000);
  std::string plain = ::testing::TempDir() + "/plain.qnto";
  std::string indexed = ::testing::TempDir() + "/indexed.qnto";
  WriteSpill(plain, entries, 256, false);
  WriteSpill(indexed, entries, 256, true);

  auto plain_bytes = Slurp(plain);
  auto indexed_bytes = Slurp(indexed);
  ASSERT_GT(indexed_bytes.size(), plain_bytes.size());
  // The data region is untouched — the index is strictly appended.
  EXPECT_TRUE(std::equal(plain_bytes.begin(), plain_bytes.end(),
                         indexed_bytes.begin()));
  // And the appendix is exactly the serialized index.
  auto parsed = ParseTraceIndex(indexed_bytes.data() + plain_bytes.size(),
                                indexed_bytes.size() - plain_bytes.size(),
                                plain_bytes.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->total_entries, entries.size());
  EXPECT_EQ(parsed->segments.size(), (entries.size() + 255) / 256);

  // The legacy whole-file readers accept both files identically.
  auto from_plain = ReadTraceFile(plain);
  auto from_indexed = ReadTraceFile(indexed);
  ASSERT_TRUE(from_plain.has_value());
  ASSERT_TRUE(from_indexed.has_value());
  ExpectSameEntries(*from_indexed, *from_plain);
  ExpectSameEntries(*from_indexed, entries);
  std::remove(plain.c_str());
  std::remove(indexed.c_str());
}

TEST(IndexedSpillTest, EmptyIndexedSpillRoundTrips) {
  std::string path = ::testing::TempDir() + "/empty_indexed.qnto";
  WriteSpill(path, {}, 256, true);
  auto restored = ReadTraceFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->empty());
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.has_index());
  auto all = reader.ReadAll();
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->empty());
  std::remove(path.c_str());
}

TEST(IndexedSpillTest, DamagedIndexFallsBackToLinearScan) {
  auto entries = SyntheticStream(2000);
  std::string path = ::testing::TempDir() + "/damaged.qnto";
  WriteSpill(path, entries, 256, true);
  auto bytes = Slurp(path);
  uint64_t index_bytes = 0;
  for (size_t i = 0; i < 8; ++i) {
    index_bytes |= uint64_t{bytes[bytes.size() - 12 + i]} << (8 * i);
  }
  size_t block_start = bytes.size() - static_cast<size_t>(index_bytes);

  // Corrupt segment 0's recorded offset (must be 0): the trailer still
  // probes and the block still opens with the index magic, but validation
  // fails — the data survives a linear scan.
  {
    auto corrupt = bytes;
    corrupt[block_start + kIndexHeaderBytes] ^= 0xFF;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(corrupt.data()), corrupt.size());
    auto restored = ReadTraceFile(path);
    ASSERT_TRUE(restored.has_value());
    ExpectSameEntries(*restored, entries);
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader.has_index());
    EXPECT_NE(reader.index_note().find("rejected"), std::string::npos);
    auto all = reader.ReadAll(4);
    ASSERT_TRUE(all.has_value());
    ExpectSameEntries(*all, entries);
  }

  // Truncate mid-index (trailer gone): the partial block starts with the
  // index magic, so the linear scan still tolerates it.
  {
    auto truncated = bytes;
    truncated.resize(truncated.size() - 40);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(truncated.data()),
               truncated.size());
    auto restored = ReadTraceFile(path);
    ASSERT_TRUE(restored.has_value());
    ExpectSameEntries(*restored, entries);
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader.has_index());
    auto all = reader.ReadAll();
    ASSERT_TRUE(all.has_value());
    ExpectSameEntries(*all, entries);
  }
  std::remove(path.c_str());
}

TEST(IndexedSpillTest, ArbitraryTrailingGarbageStillRejected) {
  // The index tolerance must not weaken the original strictness: a tail
  // that is not an index block still fails the whole parse.
  auto entries = SyntheticStream(300);
  std::string path = ::testing::TempDir() + "/garbage.qnto";
  WriteSpill(path, entries, 256, false);
  auto bytes = Slurp(path);
  bytes.push_back(0xFF);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  EXPECT_FALSE(ReadTraceFile(path).has_value());
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.has_index());
  EXPECT_FALSE(reader.ReadAll().has_value());
  std::remove(path.c_str());
}

// --- The read path on synthetic spills -------------------------------------

TEST(TraceReadPathTest, ParallelDecodeByteIdenticalAt124Threads) {
  auto entries = SyntheticStream(50000);  // Spans a u32 time wrap.
  std::string path = ::testing::TempDir() + "/par.qnto";
  WriteSpill(path, entries, 1000, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.has_index());
  EXPECT_EQ(reader.index().segments.size(), 50u);

  uint64_t want = EntryStreamHash(entries);
  for (size_t threads : {1u, 2u, 4u}) {
    ReadStats stats;
    auto got = reader.ReadAll(threads, &stats);
    ASSERT_TRUE(got.has_value()) << threads << " threads";
    ASSERT_EQ(got->size(), entries.size());
    EXPECT_EQ(EntryStreamHash(*got), want) << threads << " threads";
    EXPECT_EQ(stats.segments_read, 50u);
    EXPECT_EQ(stats.segments_skipped, 0u);
  }
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, TimeRangeQuerySkipsAndMatchesFullScan) {
  auto entries = SyntheticStream(50000);
  std::string path = ::testing::TempDir() + "/range.qnto";
  WriteSpill(path, entries, 1000, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());

  // The middle 10% of the run by unwrapped time. Times step uniformly, so
  // a 10% slice touches ~5 of 50 segments — the ISSUE's <= 25% pruning
  // bound holds with room to spare, counter-asserted below.
  StreamIngestState chain;
  uint64_t t_min = 0;
  uint64_t t_max = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    uint64_t t64 = chain.Unwrap(entries[i]);
    if (i == 0) {
      t_min = t64;
    }
    t_max = t64;
  }
  uint64_t span = t_max - t_min;
  TraceQuery q;
  q.has_time_range = true;
  q.time_min = t_min + span * 45 / 100;
  q.time_max = t_min + span * 55 / 100;

  for (size_t threads : {1u, 4u}) {
    ReadStats stats;
    auto got = reader.ReadFiltered(q, threads, &stats);
    ASSERT_TRUE(got.has_value());
    ExpectSameEntries(*got, FilterFullScan(entries, q));
    EXPECT_EQ(stats.segments_total, 50u);
    EXPECT_EQ(stats.segments_read + stats.segments_skipped,
              stats.segments_total);
    EXPECT_LE(stats.segments_read * 4, stats.segments_total)
        << "10% time slice decoded more than 25% of segments";
    EXPECT_GT(stats.entries_selected, 0u);
  }
  std::remove(path.c_str());
}

// A stream laid out around 64-entry segments: unwrapped times step by
// 1000 except for a jump over a 32-bit wrap inside segment 2 and another
// exactly at the cut between segments 4 and 5, and a time shared by the
// last entry of segment 6 and the first of segment 7.
std::vector<LogEntry> WrappingStream() {
  constexpr uint64_t kWrap = uint64_t{1} << 32;
  std::vector<LogEntry> entries;
  uint64_t t64 = 1000;
  for (size_t i = 0; i < 640; ++i) {
    if (i == 2 * 64 + 30) {
      t64 = kWrap + 5;
    } else if (i == 5 * 64) {
      t64 = 2 * kWrap + 7;
    } else if (i != 7 * 64 && i > 0) {
      t64 += 1000;
    }
    uint32_t time = static_cast<uint32_t>(t64);
    uint32_t icount = static_cast<uint32_t>(3 * i);
    if (i % 5 == 2) {
      entries.push_back(PowerEntry(time, icount, i % 2));
    } else {
      entries.push_back(ActEntry(time, icount,
                                 static_cast<node_id_t>(1 + i % 9),
                                 static_cast<act_id_t>(1 + i % 4)));
    }
  }
  return entries;
}

std::vector<uint64_t> UnwrappedTimes(const std::vector<LogEntry>& entries) {
  StreamIngestState chain;
  std::vector<uint64_t> times;
  for (const LogEntry& e : entries) {
    times.push_back(chain.Unwrap(e));
  }
  return times;
}

TEST(TraceReadPathTest, TimeSliceEdgesMatchFullScan) {
  auto entries = WrappingStream();
  auto times = UnwrappedTimes(entries);
  ASSERT_EQ(times[2 * 64 + 30] >> 32, 1u);  // The wrap inside segment 2.
  ASSERT_EQ(times[5 * 64 - 1] >> 32, 1u);   // The wrap at the 4|5 cut.
  ASSERT_EQ(times[5 * 64] >> 32, 2u);
  ASSERT_EQ(times[7 * 64 - 1], times[7 * 64]);  // Shared across 6|7.
  constexpr uint64_t kMax = ~uint64_t{0};

  for (size_t segment_entries : {64u, 1u}) {
    SCOPED_TRACE("segment_entries " + std::to_string(segment_entries));
    std::string path = ::testing::TempDir() + "/slice_edges.qnto";
    WriteSpill(path, entries, segment_entries, true);
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.has_index());
    const std::vector<SegmentFooter>& segs = reader.index().segments;
    ASSERT_EQ(segs.size(), entries.size() / segment_entries);

    std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {0, times.front() - 1},         // Before the first entry.
        {times.back() + 1, kMax},       // After the last.
        {times[10] + 1, times[11] - 1}, // Between two adjacent entries.
        {times[20], times[10]},         // Inverted.
        {0, kMax},                      // The whole file.
        {times.front(), times.back()},
        {times[2 * 64 + 29], times[2 * 64 + 30]},  // Across each wrap.
        {times[5 * 64 - 1], times[5 * 64]},
        {times[2 * 64], times[6 * 64 - 1]},
        {times[7 * 64], times[7 * 64]},  // The shared time alone.
    };
    // Ends exactly on footer times: segments 1, 4, 5 and 6 of the 64-entry
    // layout, and their one-entry counterparts.
    for (size_t s : {1u, 4u, 5u, 6u}) {
      const SegmentFooter& seg = segs[s * 64 / segment_entries];
      const SegmentFooter& last =
          segs[((s + 1) * 64 - 1) / segment_entries];
      const SegmentFooter& next = segs[(s + 1) * 64 / segment_entries];
      const SegmentFooter& after = segs[(s + 3) * 64 / segment_entries];
      ranges.push_back({seg.time_min64, last.time_max64});
      ranges.push_back({seg.time_min64, seg.time_min64});
      ranges.push_back({last.time_max64, last.time_max64});
      ranges.push_back({last.time_max64, next.time_min64});
      ranges.push_back({seg.time_min64, after.time_max64});
      ranges.push_back({seg.time_min64 + 1, last.time_max64 - 1});
      ranges.push_back({seg.time_min64 - 1, next.time_min64 + 1});
    }
    for (const auto& [t0, t1] : ranges) {
      TraceQuery q;
      q.has_time_range = true;
      q.time_min = t0;
      q.time_max = t1;
      auto want = FilterFullScan(entries, q);
      for (size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("[" + std::to_string(t0) + ", " + std::to_string(t1) +
                     "] at " + std::to_string(threads) + " threads");
        ReadStats stats;
        auto got = reader.ReadFiltered(q, threads, &stats);
        ASSERT_TRUE(got.has_value());
        ExpectSameEntries(*got, want);
        EXPECT_EQ(stats.segments_read + stats.segments_skipped, segs.size());
        EXPECT_EQ(stats.entries_selected, want.size());
      }
    }
    std::remove(path.c_str());
  }
}

TEST(TraceReadPathTest, LyingFooterTimesFailTheRead) {
  // A footer moved so that a boundary segment looks interior (or an
  // interior one claims the wrong end) parses — the index has no checksum
  // and the lie keeps the times monotone — but the read must fail rather
  // than return a wider or narrower slice.
  auto entries = SyntheticStream(5000);
  std::string path = ::testing::TempDir() + "/lying_footer.qnto";
  WriteSpill(path, entries, 256, true);
  const auto bytes = Slurp(path);
  TraceIndex index;
  {
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.has_index());
    index = reader.index();
  }
  const std::vector<SegmentFooter>& segs = index.segments;
  ASSERT_GE(segs.size(), 12u);
  size_t block_start = bytes.size() - SerializeTraceIndex(index).size();
  // A range from inside segment 4 to inside segment 8.
  TraceQuery q;
  q.has_time_range = true;
  q.time_min = segs[4].time_min64 + 100;
  q.time_max = segs[8].time_max64 - 100;
  TraceQuery q_origins = q;
  q_origins.origins = {3, 150};

  // Rewrites footer fields (byte offset in the record -> value), then
  // reads.
  auto read_lying = [&](size_t seg,
                        std::vector<std::pair<size_t, uint64_t>> fields,
                        const TraceQuery& query) {
    auto lie = bytes;
    for (const auto& [field_at, value] : fields) {
      size_t at = block_start + kIndexHeaderBytes +
                  seg * kSegmentRecordBytes + field_at;
      for (int i = 0; i < 8; ++i) {
        lie[at + i] = static_cast<uint8_t>(value >> (8 * i));
      }
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(lie.data()), lie.size());
    TraceFileReader reader(path);
    EXPECT_TRUE(reader.has_index()) << "the lie must parse";
    return reader.ReadFiltered(query, 2);
  };
  constexpr size_t kMinAt = 24;
  constexpr size_t kMaxAt = 32;
  auto read_with = [&](size_t seg, size_t field_at, uint64_t value,
                       const TraceQuery& query) {
    return read_lying(seg, {{field_at, value}}, query);
  };
  // The honest file reads.
  ASSERT_TRUE(read_with(4, kMinAt, segs[4].time_min64, q).has_value());
  // The tail boundary claims to end at the range's end; the head boundary
  // claims to start at the range's start; an interior segment claims to
  // end before its last entry.
  for (const TraceQuery* query : {&q, &q_origins}) {
    SCOPED_TRACE(query == &q ? "time only" : "time and origins");
    EXPECT_FALSE(read_with(8, kMaxAt, q.time_max, *query).has_value());
    EXPECT_FALSE(read_with(4, kMinAt, q.time_min, *query).has_value());
    EXPECT_FALSE(
        read_with(6, kMaxAt, segs[6].time_max64 - 1, *query).has_value());
  }
  // The last segment moved 2^32 later, its claimed start one tick below
  // the real one's low word: a chain seeded from that footer unwraps the
  // segment to exactly the claimed end, so only the first entry's time
  // gives the lie away. A query over the claimed range must not return
  // the segment's entries.
  const SegmentFooter& last = segs.back();
  uint64_t shifted_min = last.time_min64 + (uint64_t{1} << 32) - 1;
  uint64_t shifted_max = last.time_max64 + (uint64_t{1} << 32);
  ASSERT_NE(static_cast<uint32_t>(last.time_min64), 0u);
  TraceQuery beyond;
  beyond.has_time_range = true;
  beyond.time_min = shifted_min;
  beyond.time_max = shifted_max;
  EXPECT_TRUE(FilterFullScan(entries, beyond).empty());
  EXPECT_FALSE(read_lying(segs.size() - 1,
                          {{kMinAt, shifted_min}, {kMaxAt, shifted_max}},
                          beyond)
                   .has_value());
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, OriginAndActivityFiltersMatchFullScan) {
  auto entries = SyntheticStream(20000);
  std::string path = ::testing::TempDir() + "/filters.qnto";
  WriteSpill(path, entries, 512, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());

  TraceQuery by_origin;
  by_origin.origins = {3, 150};
  ReadStats origin_stats;
  auto origin_hits = reader.ReadFiltered(by_origin, 2, &origin_stats);
  ASSERT_TRUE(origin_hits.has_value());
  ExpectSameEntries(*origin_hits, FilterFullScan(entries, by_origin));
  EXPECT_FALSE(origin_hits->empty());

  TraceQuery by_act;
  by_act.activities = {MakeActivity(1, 1), MakeActivity(258, 2)};
  ReadStats act_stats;
  auto act_hits = reader.ReadFiltered(by_act, 2, &act_stats);
  ASSERT_TRUE(act_hits.has_value());
  ExpectSameEntries(*act_hits, FilterFullScan(entries, by_act));

  // Conjunction of all three filter kinds.
  TraceQuery all;
  all.has_time_range = true;
  all.time_min = 0xFFFF0000u;
  all.time_max = 0xFFFFFFFFull + 200000;
  all.origins = {3, 5, 7, 150};
  all.activities = {MakeActivity(3, 4), MakeActivity(150, 8)};
  ReadStats all_stats;
  auto all_hits = reader.ReadFiltered(all, 4, &all_stats);
  ASSERT_TRUE(all_hits.has_value());
  ExpectSameEntries(*all_hits, FilterFullScan(entries, all));

  // A query for an origin no entry carries (generated origins stop at
  // 400) decodes nothing at all: the footers prove absence everywhere.
  TraceQuery absent;
  absent.origins = {401};
  ReadStats absent_stats;
  auto none = reader.ReadFiltered(absent, 1, &absent_stats);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(absent_stats.segments_read, 0u);

  // Likewise a label the rollup never counted (generated ids stop at 13).
  TraceQuery absent_label;
  absent_label.activities = {MakeActivity(3, 14)};
  ReadStats absent_label_stats;
  auto no_label = reader.ReadFiltered(absent_label, 1, &absent_label_stats);
  ASSERT_TRUE(no_label.has_value());
  EXPECT_TRUE(no_label->empty());
  EXPECT_EQ(absent_label_stats.segments_read, 0u);
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, ActivityQueryPrunesThroughLabelOrigins) {
  // Three segments whose activity entries come from disjoint origins: a
  // label query decodes only the segment holding its origin.
  std::vector<LogEntry> entries;
  uint32_t time = 1000;
  for (node_id_t origin : {10u, 20u, 30u}) {
    for (act_id_t id = 1; id <= 4; ++id) {
      time += 50;
      entries.push_back(ActEntry(time, time / 10, origin, id));
    }
  }
  std::string path = ::testing::TempDir() + "/act_prune.qnto";
  WriteSpill(path, entries, 4, true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.has_index());
  ASSERT_EQ(reader.index().segments.size(), 3u);

  TraceQuery q;
  q.activities = {MakeActivity(20, 3)};
  ReadStats stats;
  auto hits = reader.ReadFiltered(q, 2, &stats);
  ASSERT_TRUE(hits.has_value());
  ExpectSameEntries(*hits, FilterFullScan(entries, q));
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_EQ(stats.segments_read, 1u);
  EXPECT_EQ(stats.segments_skipped, 2u);

  q.activities = {MakeActivity(10, 1), MakeActivity(30, 4)};
  hits = reader.ReadFiltered(q, 2, &stats);
  ASSERT_TRUE(hits.has_value());
  ExpectSameEntries(*hits, FilterFullScan(entries, q));
  EXPECT_EQ(stats.segments_read, 2u);
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, SummaryAnswersFromFootersWithoutDecoding) {
  auto entries = SyntheticStream(20000);
  std::string indexed = ::testing::TempDir() + "/sum_indexed.qnto";
  std::string plain = ::testing::TempDir() + "/sum_plain.qnto";
  WriteSpill(indexed, entries, 512, true);
  WriteSpill(plain, entries, 512, false);

  TraceFileReader fast(indexed);
  ReadStats fast_stats;
  auto fast_totals = fast.ActivityTotals(&fast_stats);
  ASSERT_TRUE(fast_totals.has_value());
  EXPECT_EQ(fast_stats.segments_read, 0u);
  EXPECT_EQ(fast_stats.segments_skipped, fast_stats.segments_total);
  EXPECT_EQ(fast_stats.entries_decoded, 0u);

  TraceFileReader slow(plain);
  EXPECT_FALSE(slow.has_index());
  EXPECT_NE(slow.index_note().find("no index"), std::string::npos);
  ReadStats slow_stats;
  auto slow_totals = slow.ActivityTotals(&slow_stats);
  ASSERT_TRUE(slow_totals.has_value());
  EXPECT_GT(slow_stats.entries_decoded, 0u);

  // Footers, full scan of the unindexed twin, and a direct scan of the
  // in-memory stream all agree.
  auto direct = TraceIndexBuilder::ScanActivityTotals(entries);
  ASSERT_EQ(fast_totals->size(), direct.size());
  ASSERT_EQ(slow_totals->size(), direct.size());
  for (const auto& [act, row] : direct) {
    EXPECT_EQ((*fast_totals)[act].entries, row.entries);
    EXPECT_EQ((*fast_totals)[act].pulses, row.pulses);
    EXPECT_EQ((*slow_totals)[act].entries, row.entries);
    EXPECT_EQ((*slow_totals)[act].pulses, row.pulses);
  }
  std::remove(indexed.c_str());
  std::remove(plain.c_str());
}

TEST(TraceReadPathTest, UnindexedFileServesEveryQueryLinearly) {
  auto entries = SyntheticStream(10000);
  std::string path = ::testing::TempDir() + "/linear.qnto";
  WriteSpill(path, entries, 512, false);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.has_index());

  auto all = reader.ReadAll(4);  // Thread count is a no-op without index.
  ASSERT_TRUE(all.has_value());
  ExpectSameEntries(*all, entries);

  TraceQuery q;
  q.has_time_range = true;
  q.time_min = 0xFFFF8000u;
  q.time_max = 0xFFFFFFFFull + 100000;
  q.origins = {3, 9, 150};
  ReadStats stats;
  auto filtered = reader.ReadFiltered(q, 4, &stats);
  ASSERT_TRUE(filtered.has_value());
  ExpectSameEntries(*filtered, FilterFullScan(entries, q));
  EXPECT_EQ(stats.segments_skipped, 0u);  // Nothing to skip without footers.
  std::remove(path.c_str());
}

// --- Real network spills (grid and chain) ----------------------------------

std::vector<LogEntry> RunIndexedNetworkSpill(const std::string& path,
                                             ScaleTopology topology,
                                             size_t motes, size_t sinks,
                                             double seconds,
                                             size_t segment_entries) {
  ShardedSimulator::Config sim_cfg;
  sim_cfg.shards = 8;
  sim_cfg.threads = 2;
  sim_cfg.lookahead = Microseconds(512);
  ShardedSimulator sim(sim_cfg);
  MediumFabric fabric(&sim);
  FileTraceSink::Options opts;
  opts.segment_entries = segment_entries;
  opts.write_index = true;
  FileTraceSink spill(path, opts);
  EXPECT_TRUE(spill.ok());
  std::vector<LogEntry> reference;
  StreamingTraceMerger merger([&spill, &reference](const MergedEntry& m) {
    spill.Append(m.entry);
    reference.push_back(m.entry);
  });
  EmissionPipeline emission(&merger);
  ScaleNetworkConfig cfg;
  cfg.motes = motes;
  cfg.log_capacity = 512;
  cfg.batch_log_charging = true;
  cfg.topology = topology;
  cfg.sinks = sinks;
  cfg.segment_entries = segment_entries;
  cfg.emission_pipeline = &emission;
  ScaleNetwork net(&sim, &fabric, cfg);
  net.PowerUp();
  sim.RunFor(Milliseconds(5));
  net.StartApps();
  sim.RunFor(static_cast<Tick>(seconds * kTicksPerSecond));
  net.SealAllChunks();
  merger.Finish();
  EXPECT_EQ(net.entries_dropped(), 0u);
  EXPECT_TRUE(spill.Close());
  EXPECT_GT(spill.index_bytes_written(), 0u);
  return reference;
}

void CheckNetworkSpillReadPath(const std::string& path,
                               const std::vector<LogEntry>& reference) {
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.has_index());
  size_t segments = reader.index().segments.size();
  ASSERT_GE(segments, 8u) << "spill too small to exercise pruning";

  // Parallel decode identity.
  uint64_t want = EntryStreamHash(reference);
  for (size_t threads : {1u, 2u, 4u}) {
    auto got = reader.ReadAll(threads);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->size(), reference.size());
    EXPECT_EQ(EntryStreamHash(*got), want) << threads << " threads";
  }

  // Middle-10% time slice: equals full-scan-then-filter and skips.
  StreamIngestState chain;
  uint64_t t_min = 0;
  uint64_t t_max = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    uint64_t t64 = chain.Unwrap(reference[i]);
    if (i == 0) {
      t_min = t64;
    }
    t_max = t64;
  }
  TraceQuery slice;
  slice.has_time_range = true;
  slice.time_min = t_min + (t_max - t_min) * 45 / 100;
  slice.time_max = t_min + (t_max - t_min) * 55 / 100;
  ReadStats stats;
  auto sliced = reader.ReadFiltered(slice, 4, &stats);
  ASSERT_TRUE(sliced.has_value());
  ExpectSameEntries(*sliced, FilterFullScan(reference, slice));
  EXPECT_LT(stats.segments_read, stats.segments_total);
  if (stats.segments_total >= 20) {
    EXPECT_LE(stats.segments_read * 4, stats.segments_total)
        << "10% slice decoded more than 25% of " << stats.segments_total
        << " segments";
  }

  // Origin filter: a couple of mote origins, equality with the full scan.
  TraceQuery origins;
  origins.origins = {2, 5};
  auto origin_hits = reader.ReadFiltered(origins, 2);
  ASSERT_TRUE(origin_hits.has_value());
  ExpectSameEntries(*origin_hits, FilterFullScan(reference, origins));

  // Activity filter: the first and a middle label that carry entries.
  auto scan = TraceIndexBuilder::ScanActivityTotals(reference);
  std::vector<act_t> labels;
  for (const auto& [act, row] : scan) {
    if (row.entries > 0) {
      labels.push_back(act);
    }
  }
  ASSERT_GE(labels.size(), 2u);
  TraceQuery acts;
  acts.activities = {labels.front(), labels[labels.size() / 2]};
  auto act_hits = reader.ReadFiltered(acts, 2);
  ASSERT_TRUE(act_hits.has_value());
  ExpectSameEntries(*act_hits, FilterFullScan(reference, acts));
  EXPECT_FALSE(act_hits->empty());

  // Footer summary == full-scan totals.
  ReadStats summary_stats;
  auto totals = reader.ActivityTotals(&summary_stats);
  ASSERT_TRUE(totals.has_value());
  EXPECT_EQ(summary_stats.segments_read, 0u);
  ASSERT_EQ(totals->size(), scan.size());
  for (const auto& [act, row] : scan) {
    EXPECT_EQ((*totals)[act].entries, row.entries);
    EXPECT_EQ((*totals)[act].pulses, row.pulses);
  }
}

TEST(TraceReadPathTest, GridNetworkSpillFilteredQueriesMatchFullScan) {
  std::string path = ::testing::TempDir() + "/grid_indexed.qnto";
  auto reference =
      RunIndexedNetworkSpill(path, ScaleTopology::kGrid, 96, 2, 1.0, 256);
  ASSERT_GT(reference.size(), 2000u);
  CheckNetworkSpillReadPath(path, reference);
  std::remove(path.c_str());
}

TEST(TraceReadPathTest, ChainNetworkSpillFilteredQueriesMatchFullScan) {
  std::string path = ::testing::TempDir() + "/chain_indexed.qnto";
  auto reference =
      RunIndexedNetworkSpill(path, ScaleTopology::kChain, 48, 1, 1.0, 256);
  ASSERT_GT(reference.size(), 1000u);
  CheckNetworkSpillReadPath(path, reference);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace quanto
