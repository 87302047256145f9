// Run configuration, metric collection, the output gate and the result
// line shared by every workload.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny sizes, for the benchmark's own self-tests.
  bool smoke = false;
  // Flips one bit of one served answer before the output gate runs; the
  // gate must then fail (self-test of the gate itself).
  bool perturb = false;
  // Directory for persistence homes and the trace file; created and
  // emptied by the run.
  std::string work_dir;
  // Commit or source-tree digest of the program under test.
  std::string source_id;
};

class Report {
 public:
  // Context block line: `context key=value`.
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);

  // End-to-end metrics go in the result line of untraced runs, per-layer
  // metrics in that of traced runs. Both are printed as text either way.
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);

  // One output-gate check; a failed check makes the run incorrect and its
  // exit status non-zero.
  void Check(bool ok, const std::string& what);

  // Ops the run attempted and ops whose status was not OK.
  void CountOps(size_t attempted, size_t failed);

  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

  // Prints the metric table and, as the last line, the JSON result.
  void PrintResult(bool trace) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  void PrintMetric(const char* kind, const std::string& name,
                   const Metric& m) const;

  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layer_;
  size_t checks_failed_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// FNV-1a over the bit patterns of the values appended, in order: equal
// digests mean bitwise-equal answer sequences.
class Digest {
 public:
  void Add(uint64_t bits);
  void AddDouble(double v);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

bool BitwiseEqual(double a, double b);
// |a - b| <= tol * max(1, |a|, |b|).
bool WithinRelative(double a, double b, double tol);

// Nearest-rank median (common/percentile.h); 0 on empty input.
double Median(std::vector<double> xs);

// Peak resident set size of this process, MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
