// Online imputation-quality monitoring by masking-one-out holdouts
// (the prequential estimator of arXiv 2511.10048).
//
// The streaming engine measures latency but — without this layer — never
// accuracy: the learned orders can go stale on a drifting stream with no
// operator-visible signal. QualityMonitor closes that gap: a
// deterministic per-arrival hash samples a trickle of arriving tuples
// (IimOptions::moo_sample_rate), the target of each sampled tuple is
// masked, and the owning engine imputes it from its PRE-arrival window
// with IIM plus three cheap challengers (mean, kNN, GLR). Each probe's
// absolute error feeds exponentially-decayed estimates
//
//   est <- (1 - moo_decay) * est + moo_decay * err        (abs and err^2)
//
// plus a bounded ring of recent absolute errors for percentile reporting.
//
// The monitor keeps no copy of the window. The IIM and kNN estimates come
// from the engine's own impute path (OnlineIim::Ingest): one index query
// for the arrival's k nearest live tuples, the IIM value scored through
// OrderCore's read-only model evaluation — so the error reported is the
// error of the model the engine serves — and the kNN value averaged over
// the same neighbour list. Only the mean and GLR challengers keep state
// here: streaming fits of the target (baselines/streaming_fit) whose
// restream source reads the engine's live rows.
//
// A probe reads the engine and never writes it: no accumulator, model,
// dirty bit or maintenance counter changes. kObserveOnly is therefore
// zero-impact — imputed values and core counters are bit-identical to a
// quality-disabled engine; the probe's own cost shows only under its own
// metrics (moo_probes, and the probed-ingest latency).
//
// On top of the estimates sits champion/challenger routing
// (IimOptions::QualityRouting::kAutoRoute): each impute request is served
// by the current champion method, with hysteresis (moo_margin) and a
// minimum sample count (moo_min_samples) guarding switches, and a
// Meta-Imputation-Balanced (arXiv 2509.03316) inverse-decayed-error
// weighted ensemble serving while a freshly switched champion settles.

#ifndef IIM_STREAM_QUALITY_H_
#define IIM_STREAM_QUALITY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "baselines/streaming_fit.h"
#include "common/percentile.h"
#include "common/result.h"
#include "core/iim_options.h"
#include "stream/persist/snapshot.h"

namespace iim::stream {

// The monitored methods, in probe order. kQualityIim is always index 0 —
// routing starts there and kObserveOnly never leaves it.
enum QualityMethod {
  kQualityIim = 0,
  kQualityMean = 1,
  kQualityKnn = 2,
  kQualityGlr = 3,
  kQualityMethods = 4,
};

// Stable display name ("iim", "mean", "knn", "glr").
const char* QualityMethodName(int method);

// Where one impute request is served from under the current estimates.
enum class QualityRoute {
  kIim,
  kMean,
  kKnn,
  kGlr,
  kEnsemble,  // champion churning: inverse-error weighted blend
};

// Snapshot of the target's estimator state, surfaced through
// OnlineIim::Stats and ImputationService::stats().
struct QualityColumnStats {
  // Holdout probes run.
  uint64_t holdouts = 0;
  // Per method: probes answered, decayed mean absolute error, decayed
  // root-mean-squared error, and percentiles over the recent-error ring.
  std::array<uint64_t, kQualityMethods> samples{};
  std::array<double, kQualityMethods> ewma_abs{};
  std::array<double, kQualityMethods> ewma_rms{};
  std::array<LatencySummary, kQualityMethods> abs_error{};
  // Current champion (a QualityMethod) and how often it changed.
  int champion = kQualityIim;
  uint64_t switches = 0;
};

// Resolved monitor configuration (MakeQualityConfig fills it from
// IimOptions).
struct QualityConfig {
  size_t q = 0;  // features the challengers regress the target on
  double sample_rate = 0.0;
  double decay = 0.05;
  double alpha = 1e-6;
  size_t min_samples = 32;
  double margin = 0.1;
  uint64_t seed = 7;
  core::IimOptions::QualityRouting routing =
      core::IimOptions::QualityRouting::kObserveOnly;
};

QualityConfig MakeQualityConfig(const core::IimOptions& options, size_t q);

class QualityMonitor {
 public:
  // `live_rows` emits the owning engine's live (features, target) pairs;
  // the challenger fits restream from it when they have to rebuild.
  QualityMonitor(const QualityConfig& config, baselines::RowSource live_rows);

  // --- Prequential protocol (the engine follows this order per arrival)
  // 1. ShouldProbe(arrival): whether this arrival is sampled. If so, the
  //    engine either counts it skipped (window under two tuples) or masks
  //    its target, computes its IIM and kNN estimates from the
  //    PRE-arrival window, and hands them to RecordProbe, which adds the
  //    mean and GLR estimates and updates the champion.
  // 2. Add(x, y): the arrival joins the challenger fits.
  // Window evictions call Remove(x, y) for each evicted tuple.
  bool ShouldProbe(uint64_t arrival) const;
  void CountSkipped() { ++skipped_; }
  void RecordProbe(const double* x, double truth, const Result<double>& iim,
                   const Result<double>& knn);
  void Add(const double* x, double y);
  void Remove(const double* x, double y);

  // --- Routing (engines consult this per request) ---
  // kIim under kObserveOnly, the champion (or the churn-window ensemble)
  // under kAutoRoute.
  QualityRoute RouteTarget() const;
  // Serves the target at features x for the kMean and kGlr routes. Fails
  // (NotFound) on an empty window — callers fall back to the IIM path.
  Result<double> ServeTarget(const double* x, QualityRoute route);
  // Inverse-decayed-squared-error weighted blend of every method's value,
  // folding in the engine-computed IIM and kNN values.
  Result<double> EnsembleTarget(const double* x, double iim_value,
                                const Result<double>& knn_value);

  // --- Telemetry ---
  uint64_t probes() const { return probes_; }
  uint64_t skipped() const { return skipped_; }
  uint64_t champion_switches() const { return champion_switches_; }
  // One entry: the target.
  std::vector<QualityColumnStats> ColumnStats() const;

  // --- Persistence ---
  // Writes one kSecQuality section (layout v2): counters, estimates,
  // rings and the champion. The challenger fits are NOT serialized:
  // RestoreFrom marks them stale and they restream from the restored
  // window on first use (so their numerics match a fresh engine fed the
  // same window, not necessarily the writer's accumulator bits; the
  // estimates themselves restore bitwise).
  void SerializeInto(persist::SnapshotBuilder* builder) const;
  Status RestoreFrom(persist::SectionReader* reader);

 private:
  struct MethodState {
    uint64_t samples = 0;
    double ewma_abs = 0.0;
    double ewma_sq = 0.0;
    std::vector<double> ring;  // recent absolute errors, capacity kRing
    size_t ring_pos = 0;
  };

  static constexpr size_t kRing = 512;

  void Record(int method, double abs_err);
  void UpdateChampion();

  QualityConfig config_;
  baselines::RowSource live_rows_;
  baselines::StreamingMeanFit mean_fit_;
  baselines::StreamingRidgeFit ridge_fit_;
  // Set by RestoreFrom: the mean fit restreams before its next use (the
  // ridge fit tracks its own staleness).
  bool mean_stale_ = false;

  std::array<MethodState, kQualityMethods> methods_;
  int champion_ = kQualityIim;
  uint64_t last_switch_probe_ = 0;
  uint64_t probes_ = 0;
  uint64_t skipped_ = 0;
  uint64_t champion_switches_ = 0;
};

}  // namespace iim::stream

#endif  // IIM_STREAM_QUALITY_H_
