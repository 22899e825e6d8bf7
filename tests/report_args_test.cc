// quanto_report's command-line rules (src/analysis/report_args.h): every
// malformed command line is rejected with a reason, and well-formed ones
// fill the options. The tool turns a rejection into usage and exit 2; the
// parser is tested directly, so no case here ever starts a reader thread.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/report_args.h"

namespace quanto {
namespace {

std::optional<ReportArgs> Parse(std::vector<std::string> words,
                                std::string* error = nullptr) {
  words.insert(words.begin(), "quanto_report");
  std::vector<const char*> argv;
  for (const std::string& w : words) {
    argv.push_back(w.c_str());
  }
  std::string ignored;
  return ParseReportArgs(static_cast<int>(argv.size()), argv.data(),
                         error != nullptr ? error : &ignored);
}

TEST(ReportArgsTest, DefaultsAndEveryFlag) {
  auto plain = Parse({"t.qnto"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->path, "t.qnto");
  EXPECT_EQ(plain->node, 1u);
  EXPECT_EQ(plain->read_threads, 1u);
  EXPECT_FALSE(plain->dump || plain->summary || plain->index_stats);
  EXPECT_TRUE(plain->query.Unfiltered());

  auto all = Parse({"t.qnto", "--node", "7", "--dump", "--summary",
                    "--index-stats", "--read-threads", "4", "--time-range",
                    "10:20", "--nodes", "3,150", "--activity", "65538"});
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->node, 7u);
  EXPECT_TRUE(all->dump && all->summary && all->index_stats);
  EXPECT_EQ(all->read_threads, 4u);
  EXPECT_TRUE(all->query.has_time_range);
  EXPECT_EQ(all->query.time_min, 10u);
  EXPECT_EQ(all->query.time_max, 20u);
  EXPECT_EQ(all->query.origins, (std::vector<node_id_t>{3, 150}));
  EXPECT_EQ(all->query.activities, (std::vector<act_t>{65538}));

  // A one-tick range is well formed.
  auto tick = Parse({"t.qnto", "--time-range", "5:5"});
  ASSERT_TRUE(tick.has_value());
  EXPECT_EQ(tick->query.time_min, 5u);
}

TEST(ReportArgsTest, RejectsMalformedCommandLines) {
  const std::vector<std::vector<std::string>> bad = {
      {},                                   // No trace file.
      {"t.qnto", "--bogus"},                // Unknown flag.
      {"t.qnto", "-n", "3"},
      {"t.qnto", "--dump", "extra"},        // Stray word.
      {"t.qnto", "--node"},                 // Flags missing their value.
      {"t.qnto", "--read-threads"},
      {"t.qnto", "--time-range"},
      {"t.qnto", "--nodes"},
      {"t.qnto", "--activity"},
      {"t.qnto", "--node", "x"},            // Non-numeric values.
      {"t.qnto", "--node", "-1"},
      {"t.qnto", "--node", "4294967296"},   // Past node_id_t.
      {"t.qnto", "--time-range", "10"},     // Not T0:T1.
      {"t.qnto", "--time-range", "a:20"},
      {"t.qnto", "--time-range", "10:2x"},
      {"t.qnto", "--time-range", ":20"},
      {"t.qnto", "--time-range", "20:10"},  // T0 > T1.
      {"t.qnto", "--nodes", "1,,2"},
      {"t.qnto", "--nodes", "1,"},
      {"t.qnto", "--activity", "7;8"},
      {"t.qnto", "--read-threads", "0"},    // Outside 1..kMaxReadThreads.
      {"t.qnto", "--read-threads", "-4"},
      {"t.qnto", "--read-threads", "99999999999999999999"},
  };
  for (const auto& words : bad) {
    std::string joined;
    for (const std::string& w : words) {
      joined += w + " ";
    }
    SCOPED_TRACE(joined);
    std::string error;
    EXPECT_FALSE(Parse(words, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(ReportArgsTest, ReadThreadsCapIsInclusive) {
  std::string top = std::to_string(kMaxReadThreads);
  std::string past = std::to_string(kMaxReadThreads + 1);
  auto at_cap = Parse({"t.qnto", "--read-threads", top});
  ASSERT_TRUE(at_cap.has_value());
  EXPECT_EQ(at_cap->read_threads, kMaxReadThreads);
  std::string error;
  EXPECT_FALSE(Parse({"t.qnto", "--read-threads", past}, &error).has_value());
  EXPECT_NE(error.find("--read-threads"), std::string::npos);
  EXPECT_NE(ReportUsage().find("1.." + top), std::string::npos);
}

}  // namespace
}  // namespace quanto
