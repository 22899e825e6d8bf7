// The benchmark's own tests: its checks must catch damaged outputs, and the
// grid_stream merge must not depend on the worker count.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  failures += ok ? 0 : 1;
}

NetSpec SmallGrid(bool sharded) {
  NetSpec spec;
  spec.sharded = sharded;
  spec.motes = 64;
  spec.horizon = sharded ? quanto::Milliseconds(400) : quanto::Seconds(10);
  spec.log_capacity = sharded ? 1024 : 1 << 16;
  return spec;
}

bool SpillPasses(const std::string& path, const SimResult& sim) {
  Outcome out;
  CheckSpill(path, sim.entry_nodes, sim.counts.merge_hash, false, &out);
  return out.correct();
}

void SpillChecks(const std::string& dir) {
  std::string spill = (fs::path(dir) / "selftest.qnto").string();
  SimResult sim = RunNetwork(SmallGrid(true), spill);
  Expect(SpillPasses(spill, sim), "an intact spill passes the spill checks");

  SpillScan scan = ScanSpill(spill);
  std::string flipped = spill + ".flipped";
  fs::copy_file(spill, flipped, fs::copy_options::overwrite_existing);
  {
    std::fstream f(flipped, std::ios::in | std::ios::out | std::ios::binary);
    // A byte in the middle of the first segment's records.
    std::streamoff at = static_cast<std::streamoff>(scan.segments.at(0).length / 2);
    f.seekg(at);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x10);
    f.seekp(at);
    f.write(&c, 1);
  }
  Expect(!SpillPasses(flipped, sim), "a flipped byte inside a segment fails them");

  std::string truncated = spill + ".truncated";
  fs::copy_file(spill, truncated, fs::copy_options::overwrite_existing);
  fs::resize_file(truncated, scan.data_bytes + scan.index_bytes / 2);
  Expect(!SpillPasses(truncated, sim), "a truncated index fails them");

  for (const std::string& p : {spill, flipped, truncated}) {
    fs::remove(p);
  }
}

void LedgerChecks() {
  SimResult sim = RunNetwork(SmallGrid(false), "");
  TraceSource traces = [&sim](size_t i) -> const std::vector<LogEntry>& {
    return sim.node_traces[i];
  };
  Outcome intact;
  RunLedger(traces, sim.truth, true, &intact);
  Expect(intact.correct(), "intact node traces pass the ledger accuracy checks");

  // One node's counter jumps by a fifth of its run's pulses half way.
  std::vector<LogEntry>& trace = sim.node_traces.at(5);
  uint32_t pulses = trace.back().icount - trace.front().icount;
  for (size_t i = trace.size() / 2; i < trace.size(); ++i) {
    trace[i].icount += pulses / 5;
  }
  Outcome perturbed;
  RunLedger(traces, sim.truth, true, &perturbed);
  Expect(!perturbed.correct(), "a perturbed node trace fails them");
}

void WorkerCountCheck(const std::string& dir) {
  std::string spill = (fs::path(dir) / "workers.qnto").string();
  NetSpec spec = SmallGrid(true);
  spec.motes = 256;
  spec.threads = 1;
  SimResult one = RunNetwork(spec, spill);
  spec.threads = 2;
  SimResult two = RunNetwork(spec, spill);
  fs::remove(spill);
  Expect(one.counts.merge_hash == two.counts.merge_hash &&
             one.counts.entries_logged == two.counts.entries_logged &&
             one.counts.events == two.counts.events,
         "grid_stream merge hash " + Hex(one.counts.merge_hash) + " at 1 worker equals " +
             Hex(two.counts.merge_hash) + " at 2");
}

}  // namespace

int SelfTest(const std::string& work_dir) {
  fs::create_directories(work_dir);
  SpillChecks(work_dir);
  LedgerChecks();
  WorkerCountCheck(work_dir);
  return failures;
}

}  // namespace perfbench
