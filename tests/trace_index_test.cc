// The segment index and the indexed read path: footer accumulation,
// serialized block layout (byte-pinned golden), backward/forward
// compatibility, parallel decode identity at 1/2/4 threads, and
// index-pruned filtered queries proven equal to full-scan-then-filter —
// on synthetic streams and on real grid/chain network spills.

#include <gtest/gtest.h>

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

TEST(TraceIndexTest, BuilderFootersDescribeSegments) {
  TraceIndexBuilder builder;
  // Segment 0: two activity entries, the first switching the CPU to
  // label (5, 2). Pulses between entries accrue to the activity current
  // *before* each entry — label 0 gets the 10 pulses up to entry 2.
  builder.Add(ActEntry(100, 50, 5, 2));
  builder.Add(ActEntry(200, 60, 7, 3, LogEntryType::kActivityAdd,
                       kSinkRadioRx));
  builder.FinishSegment(0, 40, 1, 2);
  // Segment 1: a power entry (no origin), then a wrap in time.
  builder.Add(PowerEntry(300, 65));
  builder.Add(ActEntry(10, 70, 70, 1));  // u32 time wrapped past zero.
  builder.FinishSegment(40, 44, 2, 2);

  const TraceIndex& index = builder.index();
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
  ASSERT_EQ(s0.activities.size(), 2u);
  EXPECT_EQ(s0.activities[0].first, MakeActivity(5, 2));
  EXPECT_EQ(s0.activities[0].second.entries, 1u);
  // Entry 2's delta (60 - 50) lands on the activity set at entry 1.
  EXPECT_EQ(s0.activities[0].second.pulses, 10u);
  EXPECT_EQ(s0.activities[1].first, MakeActivity(7, 3));
  EXPECT_EQ(s0.activities[1].second.pulses, 0u);
  EXPECT_TRUE(s0.MayContainOrigin(5));
  EXPECT_TRUE(s0.MayContainOrigin(7));
  EXPECT_FALSE(s0.MayContainOrigin(6));    // Range hit, filter bit clear.
  EXPECT_FALSE(s0.MayContainOrigin(200));  // Outside the range.
  EXPECT_TRUE(s0.OverlapsTime(150, 400));
  EXPECT_FALSE(s0.OverlapsTime(201, 400));

  const SegmentFooter& s1 = index.segments[1];
  // The unwrap chain spans segments: the wrapped entry lands past 2^32.
  EXPECT_EQ(s1.time_min64, 300u);
  EXPECT_EQ(s1.time_max64, (uint64_t{1} << 32) | 10u);
  EXPECT_EQ(s1.origin_min, 70u);
  EXPECT_EQ(s1.origin_max, 70u);
  // The CPU was still on (5, 2): segment 1's 10 pulses accrue to it even
  // though no entry in segment 1 carries the label.
  ASSERT_EQ(s1.activities.size(), 2u);
  EXPECT_EQ(s1.activities[0].first, MakeActivity(5, 2));
  EXPECT_EQ(s1.activities[0].second.entries, 0u);
  EXPECT_EQ(s1.activities[0].second.pulses, 10u);
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
  seg.activities.push_back(
      {MakeActivity(5, 2), ActivitySummary{1, 10}});
  index.segments.push_back(seg);

  auto blob = SerializeTraceIndex(index);
  std::vector<uint8_t> expected = {
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
  EXPECT_EQ(blob, expected);

  auto parsed = ParseTraceIndex(blob.data(), blob.size(), 0x24);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->total_entries, 2u);
  ASSERT_EQ(parsed->segments.size(), 1u);
  EXPECT_EQ(parsed->segments[0].time_min64, seg.time_min64);
  EXPECT_EQ(parsed->segments[0].origin_filter, seg.origin_filter);
  ASSERT_EQ(parsed->segments[0].activities.size(), 1u);
  EXPECT_EQ(parsed->segments[0].activities[0].second.pulses, 10u);
}

TEST(TraceIndexTest, ParseRejectsCorruptBlocks) {
  // Two segments of 32 v3 (16-byte) records.
  TraceIndexBuilder builder;
  auto entries = SyntheticStream(64);
  uint64_t seg_len = kTraceContainerHeaderBytes + 32 * 16;
  for (size_t i = 0; i < 32; ++i) {
    builder.Add(entries[i]);
  }
  builder.FinishSegment(0, seg_len, 3, 32);
  for (size_t i = 32; i < 64; ++i) {
    builder.Add(entries[i]);
  }
  builder.FinishSegment(seg_len, seg_len, 3, 32);
  uint64_t data_bytes = 2 * seg_len;
  auto good = SerializeTraceIndex(builder.index());
  ASSERT_TRUE(ParseTraceIndex(good.data(), good.size(), data_bytes));

  auto mutate = [&](size_t at, uint8_t value) {
    auto blob = good;
    blob[at] = value;
    return ParseTraceIndex(blob.data(), blob.size(), data_bytes).has_value();
  };
  EXPECT_FALSE(mutate(0, 'X'));                  // Magic.
  EXPECT_FALSE(mutate(4, 9));                    // Version.
  EXPECT_FALSE(mutate(8, 7));                    // Segment count.
  EXPECT_FALSE(mutate(12, 99));                  // Total entries.
  EXPECT_FALSE(mutate(20, 1));                   // Segment 0 offset != 0.
  EXPECT_FALSE(mutate(good.size() - 1, 'x'));    // End magic.
  EXPECT_FALSE(mutate(good.size() - 12, 0xFF));  // Trailer size.
  // Truncation and a lying data_bytes both reject.
  EXPECT_FALSE(ParseTraceIndex(good.data(), good.size() - 1, data_bytes));
  EXPECT_FALSE(ParseTraceIndex(good.data(), good.size(), data_bytes - 16));
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
  auto footer_totals = builder.index().ActivityTotals();
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

  // Footer summary == full-scan totals.
  ReadStats summary_stats;
  auto totals = reader.ActivityTotals(&summary_stats);
  ASSERT_TRUE(totals.has_value());
  EXPECT_EQ(summary_stats.segments_read, 0u);
  auto scan = TraceIndexBuilder::ScanActivityTotals(reference);
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
