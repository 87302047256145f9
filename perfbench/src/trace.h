// In-memory spans around the benchmark's calls into each layer's public
// functions. The program itself is not instrumented: a span covers one
// call made from the benchmark (OnlineIim::Ingest, OnlineIim::ImputeBatch,
// DynamicIndex::Query, OnlineIim::SerializeSnapshot, OnlineIim::Create
// from disk, IimImputer::Fit / ImputeBatch). Spans are kept in memory and
// written out as a Chrome trace-event file when the run ends.
//
// A disabled tracer records nothing: Begin and End cost one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  // Spans not belonging to one op of the workload's op sequence.
  static constexpr int64_t kNoOp = -1;

  struct Span {
    const char* name;  // string literal
    int64_t op;        // index into the workload's op sequence, or kNoOp
    size_t parent;     // id of the span that caused it; 0 = root
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (0 when disabled).
  size_t Begin(const char* name, int64_t op, size_t parent = 0);
  // Closes span `id`; returns its duration in ms (0 when disabled).
  double End(size_t id);

  // Durations (ms) of the spans named `name` whose op lies in [lo, hi).
  std::vector<double> DurationsMs(const std::string& name, int64_t lo,
                                  int64_t hi) const;

  // Prints one `span <name> count total_ms self_ms` line per span name.
  // Self time is a span's duration minus the time its children cover.
  void PrintSummary() const;

  // Writes every span as a Chrome trace "complete" event.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
