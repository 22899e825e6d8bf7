#include "src/analysis/report_args.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <vector>

namespace quanto {

namespace {

// A whole decimal number in [0, max]: no sign, no spaces, no trailing text.
bool ParseNumber(const std::string& text, uint64_t max, uint64_t* value) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v > max) {
    return false;
  }
  *value = v;
  return true;
}

// A comma-separated list of numbers, each in [0, max].
bool ParseList(const std::string& text, uint64_t max,
               std::vector<uint64_t>* values) {
  size_t at = 0;
  for (;;) {
    size_t comma = text.find(',', at);
    uint64_t v;
    if (!ParseNumber(text.substr(at, comma - at), max, &v)) {
      return false;
    }
    values->push_back(v);
    if (comma == std::string::npos) {
      return true;
    }
    at = comma + 1;
  }
}

}  // namespace

std::string ReportUsage() {
  return "usage: quanto_report <trace.qnto> [--node N] [--dump]"
         " [--read-threads T (1.." +
         std::to_string(kMaxReadThreads) +
         ")] [--time-range T0:T1] [--nodes A,B,...] [--activity L,...]"
         " [--summary] [--index-stats]\n";
}

std::optional<ReportArgs> ParseReportArgs(int argc, const char* const* argv,
                                          std::string* error) {
  if (argc < 2) {
    *error = "missing trace file";
    return std::nullopt;
  }
  ReportArgs args;
  args.path = argv[1];
  constexpr uint64_t kMaxNode = std::numeric_limits<node_id_t>::max();
  constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--dump") {
      args.dump = true;
      continue;
    }
    if (flag == "--summary") {
      args.summary = true;
      continue;
    }
    if (flag == "--index-stats") {
      args.index_stats = true;
      continue;
    }
    if (flag != "--node" && flag != "--read-threads" &&
        flag != "--time-range" && flag != "--nodes" && flag != "--activity") {
      *error = "unknown flag " + flag;
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      *error = flag + " needs a value";
      return std::nullopt;
    }
    std::string value = argv[++i];
    bool ok = false;
    if (flag == "--node") {
      uint64_t node = 0;
      ok = ParseNumber(value, kMaxNode, &node);
      args.node = static_cast<node_id_t>(node);
    } else if (flag == "--read-threads") {
      uint64_t threads = 0;
      ok = ParseNumber(value, kMaxReadThreads, &threads) && threads > 0;
      args.read_threads = static_cast<size_t>(threads);
    } else if (flag == "--time-range") {
      size_t colon = value.find(':');
      uint64_t t0 = 0;
      uint64_t t1 = 0;
      ok = colon != std::string::npos &&
           ParseNumber(value.substr(0, colon), kMaxU64, &t0) &&
           ParseNumber(value.substr(colon + 1), kMaxU64, &t1) && t0 <= t1;
      args.query.has_time_range = true;
      args.query.time_min = t0;
      args.query.time_max = t1;
    } else {
      std::vector<uint64_t> values;
      bool nodes = flag == "--nodes";
      ok = ParseList(value, nodes ? kMaxNode : kMaxU64, &values);
      for (uint64_t v : values) {
        if (nodes) {
          args.query.origins.push_back(static_cast<node_id_t>(v));
        } else {
          args.query.activities.push_back(static_cast<act_t>(v));
        }
      }
    }
    if (!ok) {
      *error = "bad value for " + flag + ": '" + value + "'";
      return std::nullopt;
    }
  }
  return args;
}

}  // namespace quanto
