#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

namespace {

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(1 << 16);
}

size_t Tracer::Begin(const char* name, int64_t op, size_t parent) {
  if (!enabled_) return 0;
  auto now = std::chrono::steady_clock::now();
  spans_.push_back({name, op, parent, now, now});
  return spans_.size();
}

double Tracer::End(size_t id) {
  if (!enabled_ || id == 0) return 0.0;
  Span& s = spans_[id - 1];
  s.end = std::chrono::steady_clock::now();
  return Ms(s.end - s.start);
}

std::vector<double> Tracer::DurationsMs(const std::string& name, int64_t lo,
                                        int64_t hi) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.op >= lo && s.op < hi && name == s.name) {
      out.push_back(Ms(s.end - s.start));
    }
  }
  return out;
}

void Tracer::PrintSummary() const {
  struct Totals {
    size_t count = 0;
    double total_ms = 0.0;
    double child_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans_) {
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_ms += Ms(s.end - s.start);
    // Spans are recorded from one thread, so siblings never overlap and
    // children cover exactly their own durations of the parent.
    if (s.parent != 0) {
      by_name[spans_[s.parent - 1].name].child_ms += Ms(s.end - s.start);
    }
  }
  for (const auto& [name, t] : by_name) {
    std::printf("span %-28s count %8zu total_ms %12.3f self_ms %12.3f\n",
                name.c_str(), t.count, t.total_ms, t.total_ms - t.child_ms);
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto origin = spans_.empty() ? std::chrono::steady_clock::time_point()
                               : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %zu, \"op\": %lld}}\n",
                 i == 0 ? "" : ",", s.name, Ms(s.start - origin) * 1e3,
                 Ms(s.end - s.start) * 1e3, i + 1, s.parent,
                 static_cast<long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
