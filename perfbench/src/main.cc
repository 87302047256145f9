// perfbench: the repository benchmark's binary. Normally started by
// perfbench/run.py, which builds it first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--source-id <id>] [--smoke] [--perturb]
//
// Prints a context block, one CHECK line per output-gate check, every
// metric with its unit and, as the last line, the JSON result. Exits 0
// only when every check held and no op failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest_window|impute_heavy|"
               "durable_monitored> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--source-id <id>] [--smoke] "
               "[--perturb]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--perturb") {
      cfg.perturb = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = argv[++i];
    } else if (arg == "--source-id") {
      cfg.source_id = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!perfbench::IsStreamWorkload(cfg.workload) || cfg.seconds <= 0.0 ||
      cfg.work_dir.empty()) {
    return Usage();
  }

  // Timings from anything but an optimized build mean nothing.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr,
                 "perfbench: refusing to run a %s build with assertions %s; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), asserts ? "on" : "off");
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 cfg.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  perfbench::Report report;
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  report.Context("host", host);
  report.Context("nproc",
                 static_cast<double>(std::thread::hardware_concurrency()));
  report.Context("build_type", build_type);
  report.Context("compiler", __VERSION__);
  report.Context("source", cfg.source_id.empty() ? "unknown" : cfg.source_id);
  report.Context("workload", cfg.workload);
  report.Context("seed", static_cast<double>(cfg.seed));
  report.Context("run_seconds", cfg.seconds);
  report.Context("trace", cfg.trace ? "1" : "0");
  report.Context("smoke", cfg.smoke ? "1" : "0");

  perfbench::Tracer tracer(cfg.trace);
  perfbench::RunStream(cfg, &tracer, &report);
  if (tracer.enabled()) {
    perfbench::RunBatchCore(cfg, &tracer, &report);
    tracer.PrintSummary();
    std::string path = cfg.work_dir + "/trace-" + cfg.workload + ".json";
    report.Check(tracer.WriteChromeTrace(path), "spans written to " + path);
  }
  report.PrintResult(cfg.trace);
  return report.correct() ? 0 : 1;
}
