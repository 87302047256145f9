// The batch core phase of a traced run: the paper's batch pipeline.
// IimImputer with Figure 11's adaptive options (Algorithm 3: max_ell 1000,
// step_h 5, validation_k 10) on the CA spec (20k x 9, target = last
// column), every 20th tuple's target masked and imputed (Algorithm 2),
// threads = all hardware threads. Fitted kFits times; the core.* metrics
// are medians over the fits.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "baselines/mean_imputer.h"
#include "common/stopwatch.h"
#include "core/iim_imputer.h"
#include "datasets/specs.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kMaskEvery = 20;
// Two fits, so the repeat check has something to compare.
constexpr int kFits = 2;
constexpr size_t kSmokeRows = 2000;
// ImputeOne vs ImputeBatch thread-independence sample.
constexpr size_t kSerialProbes = 64;

}  // namespace

void RunBatchCore(const RunConfig& cfg, Tracer* tracer, Report* report) {
  iim::datasets::DatasetSpec spec = iim::datasets::Ca();
  if (cfg.smoke) spec.n = kSmokeRows;
  iim::data::Table data;
  if (!ShuffledRows(spec, cfg.seed, &data)) {
    report->Check(false, "workload inputs generated");
    return;
  }
  const int target = static_cast<int>(spec.m) - 1;
  std::vector<int> features(static_cast<size_t>(target));
  std::iota(features.begin(), features.end(), 0);

  std::vector<size_t> complete_rows;
  std::vector<std::vector<double>> probe_rows;
  std::vector<double> truth;
  for (size_t i = 0; i < data.NumRows(); ++i) {
    if (i % kMaskEvery != kMaskEvery - 1) {
      complete_rows.push_back(i);
      continue;
    }
    std::vector<double> row = data.Row(i).ToVector();
    truth.push_back(row[static_cast<size_t>(target)]);
    row[static_cast<size_t>(target)] = std::numeric_limits<double>::quiet_NaN();
    probe_rows.push_back(std::move(row));
  }
  iim::data::Table complete = data.TakeRows(complete_rows);
  std::vector<iim::data::RowView> probes;
  for (const auto& r : probe_rows) probes.emplace_back(r.data(), r.size());

  iim::core::IimOptions opt;
  opt.k = 5;
  opt.adaptive = true;
  opt.max_ell = cfg.smoke ? 100 : 1000;
  opt.step_h = 5;
  opt.validation_k = 10;
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  report->Context("core_rows", static_cast<double>(data.NumRows()));
  report->Context("core_probes", static_cast<double>(probes.size()));
  report->Context("core_threads", static_cast<double>(opt.threads));

  std::vector<double> fit_s, learn_s, determination_s, index_s, impute_ms;
  std::vector<double> first;
  double chosen_ell_mean = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  bool repeat_equal = true;
  for (int rep = 0; rep < kFits; ++rep) {
    iim::core::IimImputer imputer(opt);
    iim::Stopwatch sw;
    size_t s = tracer->Begin("core.fit", Tracer::kNoOp);
    iim::Status st = imputer.Fit(complete, target, features);
    tracer->End(s);
    fit_s.push_back(sw.ElapsedSeconds());
    if (!st.ok()) {
      report->Check(false, "IimImputer::Fit: " + st.ToString());
      return;
    }
    learn_s.push_back(imputer.learning_seconds());
    index_s.push_back(fit_s.back() - learn_s.back());
    determination_s.push_back(imputer.adaptive_stats().determination_seconds);

    sw.Restart();
    s = tracer->Begin("core.impute_batch", Tracer::kNoOp);
    std::vector<iim::Result<double>> res = imputer.ImputeBatch(probes);
    tracer->End(s);
    impute_ms.push_back(sw.ElapsedMillis());

    std::vector<double> values(res.size());
    for (size_t i = 0; i < res.size(); ++i) {
      ++attempted;
      if (!res[i].ok()) {
        ++failed;
        continue;
      }
      values[i] = res[i].value();
    }
    if (rep == 0) {
      first = values;
      const auto& ells = imputer.adaptive_stats().chosen_ell;
      for (size_t e : ells) chosen_ell_mean += static_cast<double>(e);
      if (!ells.empty()) chosen_ell_mean /= static_cast<double>(ells.size());
      // Thread independence: serial ImputeOne equals the parallel batch.
      bool serial_equal = true;
      for (size_t i = 0; i < std::min(kSerialProbes, probes.size()); ++i) {
        iim::Result<double> one = imputer.ImputeOne(probes[i]);
        serial_equal = serial_equal && one.ok() && res[i].ok() &&
                       BitwiseEqual(one.value(), res[i].value());
      }
      report->Check(serial_equal,
                    "serial ImputeOne equals the parallel ImputeBatch bitwise");
    } else {
      for (size_t i = 0; i < values.size(); ++i) {
        repeat_equal = repeat_equal && BitwiseEqual(values[i], first[i]);
      }
    }
  }
  report->CountOps(attempted, failed);
  report->Check(failed == 0, "every batch imputation status is OK");
  report->Check(repeat_equal,
                "every repeated batch fit answers bitwise the same");

  Digest digest;
  for (double v : first) digest.AddDouble(v);
  std::printf("core_digest %s\n", digest.Hex().c_str());

  iim::baselines::MeanImputer mean;
  double err = 0.0;
  double mean_err = 0.0;
  bool mean_ok = mean.Fit(complete, target, features).ok();
  for (size_t i = 0; i < first.size(); ++i) {
    err += (first[i] - truth[i]) * (first[i] - truth[i]);
    double m = mean_ok ? mean.ImputeOne(probes[i]).value_or(0.0) : 0.0;
    mean_err += (m - truth[i]) * (m - truth[i]);
  }
  double rmse = std::sqrt(err / static_cast<double>(first.size()));
  double mean_rmse = std::sqrt(mean_err / static_cast<double>(first.size()));
  char what[128];
  std::snprintf(what, sizeof(what),
                "batch rmse %.6g below the column-mean imputer's %.6g",
                rmse, mean_rmse);
  report->Check(mean_ok && rmse < mean_rmse, what);

  report->Layer("core.learn_s", Median(learn_s), "s");
  report->Layer("core.determination_cpu_s", Median(determination_s), "s");
  report->Layer("core.index_build_s", Median(index_s), "s");
  report->Layer("core.impute_batch_ms", Median(impute_ms), "ms");
  report->Layer("core.chosen_ell_mean", chosen_ell_mean, "count");
}

}  // namespace perfbench
