#include "baselines/streaming_fit.h"

namespace iim::baselines {

void StreamingMeanFit::Add(double y) {
  sum_ += y;
  ++rows_;
}

void StreamingMeanFit::Remove(double y) {
  sum_ -= y;
  --rows_;
  // An emptied window restarts the sum exactly at zero so a long
  // add/remove history cannot leave drift behind.
  if (rows_ == 0) sum_ = 0.0;
}

void StreamingMeanFit::Reset() {
  rows_ = 0;
  sum_ = 0.0;
}

Result<double> StreamingMeanFit::Mean() const {
  if (rows_ == 0) {
    return Status::NotFound("streaming mean: no rows fitted");
  }
  return sum_ / static_cast<double>(rows_);
}

StreamingRidgeFit::StreamingRidgeFit(size_t p, double alpha)
    : p_(p), alpha_(alpha), acc_(p) {}

void StreamingRidgeFit::Add(const double* x, double y) {
  if (stale_) return;  // rebuilt from scratch anyway
  acc_.AddRow(x, y);
  model_valid_ = false;
}

void StreamingRidgeFit::Remove(const double* x, double y) {
  if (stale_) return;
  if (!acc_.RemoveRow(x, y)) stale_ = true;
  model_valid_ = false;
}

void StreamingRidgeFit::MarkStale() {
  stale_ = true;
  model_valid_ = false;
}

Result<double> StreamingRidgeFit::Predict(const double* x,
                                          const RowSource& source) {
  if (stale_) {
    acc_.Reset();
    source([this](const double* row, double y) { acc_.AddRow(row, y); });
    stale_ = false;
    ++restreams_;
  }
  if (acc_.num_rows() == 0) {
    return Status::NotFound("streaming ridge: no rows fitted");
  }
  if (!model_valid_) {
    ASSIGN_OR_RETURN(model_, acc_.Solve(alpha_));
    model_valid_ = true;
  }
  return model_.Predict(x, p_);
}

}  // namespace iim::baselines
