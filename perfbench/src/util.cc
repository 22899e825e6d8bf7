#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "perfbench/src/bench.h"

namespace perfbench {

Tracer* g_tracer = nullptr;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) {
    s += v;
  }
  return s;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

bool SetHeapThresholds(int mmap_threshold, int trim_threshold) {
  return mallopt(M_MMAP_THRESHOLD, mmap_threshold) == 1 &&
         mallopt(M_TRIM_THRESHOLD, trim_threshold) == 1;
}

uint64_t EntriesDigest(const std::vector<LogEntry>& entries) {
  const auto* p = reinterpret_cast<const uint8_t*>(entries.data());
  size_t n = entries.size() * sizeof(LogEntry);
  uint64_t h = 0x9E3779B97F4A7C15ull ^ n;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) {
    h = (h ^ p[i]) * 0x94D049BB133111EBull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kSim: return "sim";
    case Layer::kApps: return "apps";
    case Layer::kEmit: return "emit";
    case Layer::kRead: return "read";
    case Layer::kModel: return "model";
    case Layer::kCount: break;
  }
  return "?";
}

int32_t Tracer::Begin(const char* name, Layer layer) {
  spans_.push_back(Span{name, layer, NowS(), 0.0, open_});
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(int32_t id) {
  spans_[id].end_s = NowS();
  open_ = spans_[id].parent;
}

std::map<Layer, double> Tracer::SelfMs() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[s.parent] += s.end_s - s.start_s;
    }
  }
  std::map<Layer, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += (s.end_s - s.start_s - child_s[i]) * 1e3;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  f << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, LayerName(s.layer),
                  (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6,
                  s.parent);
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) {
    if (errors_.size() < 20) {
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
    errors_.push_back(what);
  }
}

}  // namespace perfbench
