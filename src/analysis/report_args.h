// Command-line options of quanto_report (tools/quanto_report.cc), parsed
// apart from the tool so its rejection rules are testable without running
// it. Every malformed command line is rejected, never silently read: an
// unknown flag, a flag missing its value, a value that is not a decimal
// number (or does not fit its field), a --time-range that is not T0:T1
// with T0 <= T1, and a --read-threads outside [1, kMaxReadThreads].
#ifndef QUANTO_SRC_ANALYSIS_REPORT_ARGS_H_
#define QUANTO_SRC_ANALYSIS_REPORT_ARGS_H_

#include <cstddef>
#include <optional>
#include <string>

#include "src/analysis/trace_reader.h"
#include "src/core/activity.h"

namespace quanto {

// The most reader threads --read-threads accepts. The reader clamps to the
// segment count anyway; the cap keeps a typo from asking for thousands.
inline constexpr size_t kMaxReadThreads = 64;

struct ReportArgs {
  std::string path;
  node_id_t node = 1;
  bool dump = false;
  bool summary = false;
  bool index_stats = false;
  size_t read_threads = 1;
  TraceQuery query;
};

// The usage line quanto_report prints on a rejected command line.
std::string ReportUsage();

// Parses argv[1..argc) (argv[0] is the program). On a malformed command
// line returns nullopt and sets *error to a one-line reason.
std::optional<ReportArgs> ParseReportArgs(int argc, const char* const* argv,
                                          std::string* error);

}  // namespace quanto

#endif  // QUANTO_SRC_ANALYSIS_REPORT_ARGS_H_
