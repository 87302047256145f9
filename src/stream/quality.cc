#include "stream/quality.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace iim::stream {

namespace {

// SplitMix64: the deterministic per-arrival hash behind holdout sampling.
// Seeded by options.seed so two engines configured alike sample the same
// arrivals — a log replay after recovery re-probes exactly the arrivals
// the original engine probed.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Top 53 bits -> uniform double in [0, 1).
double ToUnit(uint64_t u) {
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

}  // namespace

const char* QualityMethodName(int method) {
  switch (method) {
    case kQualityIim: return "iim";
    case kQualityMean: return "mean";
    case kQualityKnn: return "knn";
    case kQualityGlr: return "glr";
  }
  return "unknown";
}

QualityConfig MakeQualityConfig(const core::IimOptions& options, size_t q) {
  QualityConfig c;
  c.q = q;
  c.sample_rate = options.moo_sample_rate;
  c.decay = options.moo_decay;
  c.alpha = options.alpha;
  c.min_samples = options.moo_min_samples;
  c.margin = options.moo_margin;
  c.seed = options.seed;
  c.routing = options.quality_routing;
  return c;
}

QualityMonitor::QualityMonitor(const QualityConfig& config,
                               baselines::RowSource live_rows)
    : config_(config),
      live_rows_(std::move(live_rows)),
      ridge_fit_(config.q, config.alpha) {}

bool QualityMonitor::ShouldProbe(uint64_t arrival) const {
  if (config_.sample_rate <= 0.0) return false;
  if (config_.sample_rate >= 1.0) return true;
  return ToUnit(SplitMix64(config_.seed ^ arrival)) < config_.sample_rate;
}

void QualityMonitor::Record(int method, double abs_err) {
  MethodState& ms = methods_[static_cast<size_t>(method)];
  if (ms.samples == 0) {
    ms.ewma_abs = abs_err;
    ms.ewma_sq = abs_err * abs_err;
  } else {
    const double lambda = config_.decay;
    ms.ewma_abs = (1.0 - lambda) * ms.ewma_abs + lambda * abs_err;
    ms.ewma_sq = (1.0 - lambda) * ms.ewma_sq + lambda * abs_err * abs_err;
  }
  ++ms.samples;
  if (ms.ring.size() < kRing) {
    ms.ring.push_back(abs_err);
  } else {
    ms.ring[ms.ring_pos] = abs_err;
  }
  ms.ring_pos = (ms.ring_pos + 1) % kRing;
}

void QualityMonitor::UpdateChampion() {
  int best = -1;
  double best_sq = std::numeric_limits<double>::infinity();
  for (int m = 0; m < kQualityMethods; ++m) {
    const MethodState& ms = methods_[static_cast<size_t>(m)];
    if (ms.samples < config_.min_samples) continue;
    if (ms.ewma_sq < best_sq) {
      best_sq = ms.ewma_sq;
      best = m;
    }
  }
  if (best < 0 || best == champion_) return;
  const MethodState& champ = methods_[static_cast<size_t>(champion_)];
  const double champ_sq = champ.samples > 0
                              ? champ.ewma_sq
                              : std::numeric_limits<double>::infinity();
  // Hysteresis: a challenger must beat the incumbent by the margin, not
  // merely edge it out, or champions flap on noise.
  if (best_sq < champ_sq * (1.0 - config_.margin)) {
    champion_ = best;
    ++champion_switches_;
    last_switch_probe_ = probes_;
  }
}

void QualityMonitor::RecordProbe(const double* x, double truth,
                                 const Result<double>& iim,
                                 const Result<double>& knn) {
  ++probes_;
  const std::array<Result<double>, kQualityMethods> imputed = {
      iim, ServeTarget(x, QualityRoute::kMean), knn,
      ServeTarget(x, QualityRoute::kGlr)};
  for (int m = 0; m < kQualityMethods; ++m) {
    const Result<double>& v = imputed[static_cast<size_t>(m)];
    if (v.ok()) Record(m, std::fabs(v.value() - truth));
  }
  UpdateChampion();
}

void QualityMonitor::Add(const double* x, double y) {
  if (!mean_stale_) mean_fit_.Add(y);
  ridge_fit_.Add(x, y);
}

void QualityMonitor::Remove(const double* x, double y) {
  if (!mean_stale_) mean_fit_.Remove(y);
  ridge_fit_.Remove(x, y);
}

QualityRoute QualityMonitor::RouteTarget() const {
  if (config_.routing == core::IimOptions::QualityRouting::kObserveOnly) {
    return QualityRoute::kIim;
  }
  // A freshly switched champion has not proven itself yet: serve the
  // MIB-style ensemble until min_samples further holdouts land.
  if (champion_switches_ > 0 &&
      probes_ - last_switch_probe_ < config_.min_samples) {
    return QualityRoute::kEnsemble;
  }
  switch (champion_) {
    case kQualityIim: return QualityRoute::kIim;
    case kQualityMean: return QualityRoute::kMean;
    case kQualityKnn: return QualityRoute::kKnn;
    case kQualityGlr: return QualityRoute::kGlr;
  }
  return QualityRoute::kIim;
}

Result<double> QualityMonitor::ServeTarget(const double* x,
                                           QualityRoute route) {
  switch (route) {
    case QualityRoute::kMean:
      if (mean_stale_) {
        mean_fit_.Reset();
        live_rows_([this](const double*, double y) { mean_fit_.Add(y); });
        mean_stale_ = false;
      }
      return mean_fit_.Mean();
    case QualityRoute::kGlr:
      return ridge_fit_.Predict(x, live_rows_);
    default:
      return Status::InvalidArgument(
          "quality route: ServeTarget handles mean/glr only");
  }
}

Result<double> QualityMonitor::EnsembleTarget(
    const double* x, double iim_value, const Result<double>& knn_value) {
  double wsum = 0.0;
  double vsum = 0.0;
  for (int m = 0; m < kQualityMethods; ++m) {
    const MethodState& ms = methods_[static_cast<size_t>(m)];
    if (ms.samples == 0) continue;  // no error evidence, no vote
    Result<double> value =
        m == kQualityIim    ? Result<double>(iim_value)
        : m == kQualityKnn  ? knn_value
        : m == kQualityMean ? ServeTarget(x, QualityRoute::kMean)
                            : ServeTarget(x, QualityRoute::kGlr);
    if (!value.ok()) continue;
    const double w = 1.0 / (ms.ewma_sq + 1e-12);
    wsum += w;
    vsum += w * value.value();
  }
  if (wsum <= 0.0) return iim_value;
  return vsum / wsum;
}

std::vector<QualityColumnStats> QualityMonitor::ColumnStats() const {
  QualityColumnStats s;
  s.holdouts = probes_;
  s.champion = champion_;
  s.switches = champion_switches_;
  for (int m = 0; m < kQualityMethods; ++m) {
    const MethodState& ms = methods_[static_cast<size_t>(m)];
    s.samples[static_cast<size_t>(m)] = ms.samples;
    s.ewma_abs[static_cast<size_t>(m)] = ms.ewma_abs;
    s.ewma_rms[static_cast<size_t>(m)] = std::sqrt(ms.ewma_sq);
    s.abs_error[static_cast<size_t>(m)] = Summarize(ms.ring);
  }
  return {s};
}

// Layout v2: the target is the only monitored column. v1 carried one
// estimator block per gathered column (features probed too) and is
// refused.
constexpr uint32_t kQualityLayout = 2;

void QualityMonitor::SerializeInto(persist::SnapshotBuilder* builder) const {
  builder->BeginSection(persist::kSecQuality);
  builder->PutU32(kQualityLayout);
  builder->PutU64(probes_);
  builder->PutU64(skipped_);
  builder->PutU64(champion_switches_);
  builder->PutU64(last_switch_probe_);
  builder->PutU32(static_cast<uint32_t>(champion_));
  for (const MethodState& ms : methods_) {
    builder->PutU64(ms.samples);
    builder->PutF64(ms.ewma_abs);
    builder->PutF64(ms.ewma_sq);
    // Ring in logical (oldest -> newest) order; RestoreFrom re-pushes,
    // which reproduces the same multiset and overwrite behavior.
    builder->PutU64(ms.ring.size());
    if (ms.ring.size() < kRing) {
      builder->PutDoubles(ms.ring.data(), ms.ring.size());
    } else {
      builder->PutDoubles(ms.ring.data() + ms.ring_pos, kRing - ms.ring_pos);
      builder->PutDoubles(ms.ring.data(), ms.ring_pos);
    }
  }
}

Status QualityMonitor::RestoreFrom(persist::SectionReader* reader) {
  const uint32_t version = reader->U32();
  if (reader->ok() && version != kQualityLayout) {
    return Status::InvalidArgument(
        "quality snapshot: unsupported section layout " +
        std::to_string(version));
  }
  probes_ = reader->U64();
  skipped_ = reader->U64();
  champion_switches_ = reader->U64();
  last_switch_probe_ = reader->U64();
  const uint32_t champion = reader->U32();
  if (reader->ok() && champion >= kQualityMethods) {
    return Status::InvalidArgument("quality snapshot: bad champion");
  }
  champion_ = static_cast<int>(champion);
  for (MethodState& ms : methods_) {
    ms.samples = reader->U64();
    ms.ewma_abs = reader->F64();
    ms.ewma_sq = reader->F64();
    const uint64_t ring_n = reader->U64();
    if (reader->ok() && ring_n > kRing) {
      return Status::InvalidArgument("quality snapshot: ring overflow");
    }
    if (!reader->ok()) return reader->status();
    ms.ring.assign(ring_n, 0.0);
    reader->Doubles(ms.ring.data(), ring_n);
    ms.ring_pos = static_cast<size_t>(ring_n) % kRing;
  }
  RETURN_IF_ERROR(reader->status());
  if (reader->remaining() != 0) {
    return Status::InvalidArgument("quality snapshot: trailing bytes");
  }
  // The fits were not serialized; both restream from the restored window.
  mean_stale_ = true;
  ridge_fit_.MarkStale();
  return Status::OK();
}

}  // namespace iim::stream
