// quanto_perfbench: the Quanto pipeline benchmark.
//
//   quanto_perfbench run --workload W --seed N --seconds S --trace 0|1
//                        --work-dir DIR [--spans FILE] [--smoke]
//   quanto_perfbench selftest --work-dir DIR
//
// `run` prints a line of deterministic figures ("fingerprint ...") and, as
// its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}, with the end-to-end metrics when
// --trace is 0 and the per-layer metrics when it is 1. perfbench/run.py
// builds this binary and drives it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

int Usage() {
  std::cerr << "usage: quanto_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--spans FILE] [--smoke]\n"
               "       quanto_perfbench selftest --work-dir DIR\n";
  return 2;
}

void PrintJson(const Outcome& out, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += out.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted());
  s += ", \"failed\": " + std::to_string(out.failed());
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string mode = argv[1];
  RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has) {
      opt.work_dir = argv[++i];
    } else if (a == "--spans" && has) {
      opt.spans_path = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return Usage();
    }
  }
  if (opt.work_dir.empty()) {
    return Usage();
  }
  if (mode == "selftest") {
    int failures = SelfTest(opt.work_dir);
    std::cout << (failures == 0 ? "selftest: all checks passed\n"
                                : "selftest: " + std::to_string(failures) +
                                      " failed\n");
    return failures == 0 ? 0 : 1;
  }
  if (mode != "run") {
    return Usage();
  }
  // A fixed allocator state instead of glibc's history-dependent one: the
  // mmap and trim thresholds glibc's dynamic adjustment ends at.
  if (!SetHeapThresholds(32 << 20, 64 << 20)) {
    std::cerr << "mallopt failed\n";
    return 1;
  }
  Outcome out;
  Report report;
  if (!RunWorkload(opt, &out, &report)) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  for (const auto& [key, value] : out.fingerprint()) {
    std::cout << "fingerprint " << key << ": " << value << "\n";
  }
  PrintJson(out, opt.trace ? report.per_layer : report.end_to_end);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
