#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/percentile.h"

namespace perfbench {

namespace {

// Shortest round-trip text of a double, as a JSON number.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Context(const std::string& key, const std::string& value) {
  std::printf("context %s=%s\n", key.c_str(), value.c_str());
}

void Report::Context(const std::string& key, double value) {
  std::printf("context %s=%.6g\n", key.c_str(), value);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_[name] = {value, unit};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = {value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("CHECK %-4s %s\n", ok ? "OK" : "FAIL", what.c_str());
  if (!ok) ++checks_failed_;
}

void Report::CountOps(size_t attempted, size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::PrintMetric(const char* kind, const std::string& name,
                         const Metric& m) const {
  std::printf("%-10s %-40s %16.6f %s\n", kind, name.c_str(), m.value,
              m.unit.c_str());
}

void Report::PrintResult(bool trace) const {
  for (const auto& [name, m] : end_to_end_) PrintMetric("end_to_end", name, m);
  for (const auto& [name, m] : layer_) PrintMetric("per_layer", name, m);
  std::printf("result correct=%s attempted=%zu failed=%zu checks_failed=%zu\n",
              correct() ? "true" : "false", attempted_, failed_,
              checks_failed_);
  const auto& metrics = trace ? layer_ : end_to_end_;
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Digest::Add(uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (bits >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::AddDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool WithinRelative(double a, double b, double tol) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

double Median(std::vector<double> xs) { return iim::Percentile(xs, 50.0); }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
