// Streaming-fit adapters for the cheap challenger imputers used by the
// quality monitor (src/stream/quality.h).
//
// The batch baselines (MeanImputer, GlrImputer) re-scan the whole relation
// on every Fit, which is fine for one-shot evaluation but not for a probe
// that runs inside the ingest path. These adapters maintain the same
// sufficient statistics of the target incrementally: a running sum for
// the mean, and one IncrementalRidge accumulator for the global
// regression of the target on the p features. Window evictions down-date
// them in place; when the ridge conditioning guard refuses a down-date,
// the fit is flagged and lazily restreamed from the caller's row source,
// mirroring the down-date/restream protocol of stream::OrderCore.

#ifndef IIM_BASELINES_STREAMING_FIT_H_
#define IIM_BASELINES_STREAMING_FIT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "regress/incremental_ridge.h"
#include "regress/linear_model.h"

namespace iim::baselines {

// Emits every current (features, target) pair exactly once — the restream
// fallback when a down-date is refused (or the fitted state was never
// built, e.g. after a snapshot restore). `emit` must be invoked
// synchronously, with p feature values per row.
using RowSource = std::function<void(
    const std::function<void(const double* x, double y)>& emit)>;

// Running mean of the target over a multiset of rows.
class StreamingMeanFit {
 public:
  void Add(double y);
  void Remove(double y);
  // Drops every row (an exact zero restart).
  void Reset();

  size_t rows() const { return rows_; }
  // Mean over the current rows; NotFound while empty.
  Result<double> Mean() const;

 private:
  size_t rows_ = 0;
  double sum_ = 0.0;
};

// Global ridge regression of the target on the p features, maintained
// incrementally.
class StreamingRidgeFit {
 public:
  StreamingRidgeFit(size_t p, double alpha);

  void Add(const double* x, double y);
  // Down-dates the accumulator; a refused down-date flags it for a lazy
  // restream instead of corrupting its conditioning.
  void Remove(const double* x, double y);
  // Forgets the folded rows: the next Predict restreams from its source.
  void MarkStale();

  // Predicts the target at x. Restreams the accumulator from `source`
  // first if it is stale. Fails (NotFound) while the source is empty.
  Result<double> Predict(const double* x, const RowSource& source);

  // Rebuilds from scratch after a refused down-date or MarkStale
  // (telemetry).
  uint64_t restreams() const { return restreams_; }

 private:
  size_t p_;
  double alpha_;
  uint64_t restreams_ = 0;
  regress::IncrementalRidge acc_;
  bool stale_ = false;
  bool model_valid_ = false;
  regress::LinearModel model_;
};

}  // namespace iim::baselines

#endif  // IIM_BASELINES_STREAMING_FIT_H_
