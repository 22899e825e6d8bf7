// The benchmark's own reading of a spill file and the checks that compare
// it with what the program's reader and index say.
#include <cstring>
#include <fstream>

#include "perfbench/src/bench.h"
#include "src/analysis/trace_io.h"
#include "src/analysis/trace_merge.h"

namespace perfbench {
namespace {

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Record size per container version (docs/TRACE_FORMAT.md), 0 if unknown.
size_t RecordBytes(uint16_t version) {
  switch (version) {
    case 1: return 12;
    case 2: return 14;
    case 3: return 16;
    default: return 0;
  }
}

constexpr size_t kHeaderBytes = 12;  // "QNTO" | u16 version | u16 | u32 count.

}  // namespace

SpillScan ScanSpill(const std::string& path) {
  SpillScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    scan.error = "cannot open " + path;
    return scan;
  }
  in.seekg(0, std::ios::end);
  scan.file_bytes = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  uint64_t offset = 0;
  bool have_prev = false;
  uint32_t prev_time = 0;
  std::vector<uint8_t> records;
  while (offset + kHeaderBytes <= scan.file_bytes) {
    uint8_t header[kHeaderBytes];
    in.seekg(static_cast<std::streamoff>(offset));
    if (!in.read(reinterpret_cast<char*>(header), kHeaderBytes) ||
        std::memcmp(header, "QNTO", 4) != 0) {
      break;  // End of the data region.
    }
    ScannedSegment seg;
    seg.offset = offset;
    seg.version = static_cast<uint16_t>(header[4] | (header[5] << 8));
    seg.entries = LoadU32(header + 8);
    size_t rec = RecordBytes(seg.version);
    if (rec == 0) {
      scan.error = "unknown container version at offset " + std::to_string(offset);
      return scan;
    }
    seg.length = kHeaderBytes + static_cast<uint64_t>(seg.entries) * rec;
    if (offset + seg.length > scan.file_bytes) {
      scan.error = "segment at offset " + std::to_string(offset) + " runs past the file";
      return scan;
    }
    records.resize(seg.length - kHeaderBytes);
    if (!in.read(reinterpret_cast<char*>(records.data()),
                 static_cast<std::streamsize>(records.size()))) {
      scan.error = "short read at offset " + std::to_string(offset);
      return scan;
    }
    for (uint32_t i = 0; i < seg.entries; ++i) {
      uint32_t t = LoadU32(records.data() + i * rec + 2);  // After type, res_id.
      if (i == 0) {
        seg.time_min = t;
      }
      seg.time_max = t;
      if (have_prev && t < prev_time) {
        scan.times_monotone = false;
      }
      have_prev = true;
      prev_time = t;
    }
    scan.entries += seg.entries;
    scan.segments.push_back(seg);
    offset += seg.length;
  }
  scan.data_bytes = offset;
  scan.index_bytes = scan.file_bytes - offset;
  scan.ok = true;
  return scan;
}

std::vector<LogEntry> CheckSpill(const std::string& path,
                                 const std::vector<node_id_t>& nodes,
                                 uint64_t expected_hash, bool linear_reader,
                                 Outcome* out) {
  ScopedSpan span("CheckSpill", Layer::kBench);
  SpillScan scan = ScanSpill(path);
  out->Check(scan.ok, "spill scan: " + scan.error);
  out->Check(scan.times_monotone, "spill times decrease");
  out->Check(scan.entries == nodes.size(),
             "spill holds " + std::to_string(scan.entries) + " entries, " +
                 std::to_string(nodes.size()) + " were emitted");

  quanto::TraceFileReader reader(path);
  out->Check(reader.ok() && reader.has_index(),
             "spill index missing: " + reader.index_note());
  if (reader.ok() && reader.has_index()) {
    const quanto::TraceIndex& index = reader.index();
    out->Check(reader.data_bytes() == scan.data_bytes,
               "index data extent differs from the scanned one");
    out->Check(index.total_entries == scan.entries,
               "index entry total differs from the scan");
    out->Check(index.segments.size() == scan.segments.size(),
               "index has " + std::to_string(index.segments.size()) +
                   " footers, the scan found " +
                   std::to_string(scan.segments.size()) + " segments");
    for (size_t i = 0;
         i < std::min(index.segments.size(), scan.segments.size()); ++i) {
      const quanto::SegmentFooter& f = index.segments[i];
      const ScannedSegment& s = scan.segments[i];
      out->Check(f.offset == s.offset && f.length == s.length &&
                     f.entries == s.entries && f.container_version == s.version &&
                     f.time_min64 == s.time_min && f.time_max64 == s.time_max,
                 "footer " + std::to_string(i) + " differs from its segment");
    }
  }

  std::vector<LogEntry> linear;
  {
    ScopedSpan read(linear_reader ? "ReadTraceFile" : "TraceFileReader::ReadAll",
                    Layer::kRead);
    auto got = linear_reader ? quanto::ReadTraceFile(path) : reader.ReadAll(1);
    if (got.has_value()) {
      linear = std::move(*got);
    }
  }
  out->Check(linear.size() == nodes.size(), "decoding the spill failed");
  if (linear.size() == nodes.size()) {
    // The decoded stream, paired with the node each entry was emitted for,
    // must fingerprint to what the merger emitted.
    quanto::MergedTraceHasher hasher;
    for (size_t i = 0; i < linear.size(); ++i) {
      quanto::MergedEntry m;
      m.time64 = linear[i].time;
      m.node = nodes[i];
      m.entry = linear[i];
      hasher.Mix(m);
    }
    out->Check(hasher.hash() == expected_hash,
               "decoded spill fingerprint " + Hex(hasher.hash()) +
                   " differs from the emitted " + Hex(expected_hash));
  }
  return linear;
}

}  // namespace perfbench
