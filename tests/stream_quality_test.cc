// Online imputation-quality monitoring: the masking-one-out differential
// harness (ROADMAP item 2).
//
// What is pinned here, suite by suite:
//
//   - The estimator itself: the decayed per-column error a stationary
//     stream accumulates converges to the batch masking error computed
//     directly over the final window (src/eval's RMS metric) — the online
//     trickle and the offline protocol measure the same quantity.
//   - The zero-impact contract: a kObserveOnly engine answers every
//     impute bit-identically to a quality-disabled engine, and its core
//     maintenance counters match exactly, on the restream, down-date and
//     adaptive paths — the probe runs through the engine's read-only
//     impute path and must never perturb what it monitors.
//   - Routing: on a deliberately drifted stream the kAutoRoute engine
//     switches the target's champion off IIM and serves the drifted tail
//     with LOWER held-out error than the kObserveOnly twin; a kNN
//     champion answers from the engine's own index, exactly the mean
//     target of a brute-force k-NN over the live window.
//   - Time-based eviction: EvictWhere / EvictOlderThan agree with the
//     same victims retired by explicit Evict calls and tolerate holes
//     anywhere in the window (no FIFO-prefix assumption), with
//     imputations still bitwise equal afterwards.
//   - The service's overload fallback: the column-mean fit is cached per
//     quiescent span — fits advance with window *changes*, not with the
//     number of fallback batches served.
//   - Persistence: quality estimates snapshot and restore bitwise, a
//     restored engine's subsequent probes match the original's exactly,
//     and images of retired layouts (the v1 quality section, the v3
//     fingerprint with the moo_knn/moo_ell fan-ins) are refused.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/table.h"
#include "eval/metrics.h"
#include "neighbors/knn.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"
#include "stream/persist/snapshot.h"
#include "stream_test_util.h"

namespace iim::stream {
namespace {

constexpr int kTarget = 2;
const std::vector<int> kFeatures = {0, 1};

core::IimOptions QualityOptions() {
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 8;
  opt.window_size = 128;
  // Restream path: the cross-engine cells assert bitwise equality, which
  // is the downdate = false contract (see stream_window_test.cc).
  opt.downdate = false;
  opt.moo_sample_rate = 1.0;
  return opt;
}

// A stationary linear relation with noise: y = 2 x0 + x1 + eps.
data::Table StationaryTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  data::Table t(data::Schema::Default(3));
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    double y = 2.0 * x0 + x1 + rng.Gaussian(0.0, 0.3);
    EXPECT_TRUE(t.AppendRow({x0, x1, y}).ok());
  }
  return t;
}

// An abruptly drifting relation: the head is exactly linear (IIM's home
// turf), the tail's target is feature-independent noise around 5 (the
// column mean's home turf).
data::Table DriftTable(size_t head, size_t tail, uint64_t seed) {
  Rng rng(seed);
  data::Table t(data::Schema::Default(3));
  for (size_t i = 0; i < head; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    EXPECT_TRUE(t.AppendRow({x0, x1, 3.0 * x0 + 2.0 * x1}).ok());
  }
  for (size_t i = 0; i < tail; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    EXPECT_TRUE(t.AppendRow({x0, x1, 5.0 + rng.Gaussian(0.0, 1.0)}).ok());
  }
  return t;
}

void ExpectSameColumns(const std::vector<QualityColumnStats>& want,
                       const std::vector<QualityColumnStats>& got,
                       const char* where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t c = 0; c < want.size(); ++c) {
    const QualityColumnStats& a = want[c];
    const QualityColumnStats& b = got[c];
    EXPECT_EQ(a.holdouts, b.holdouts) << where << " col " << c;
    EXPECT_EQ(a.champion, b.champion) << where << " col " << c;
    EXPECT_EQ(a.switches, b.switches) << where << " col " << c;
    for (int m = 0; m < kQualityMethods; ++m) {
      EXPECT_EQ(a.samples[m], b.samples[m]) << where << " col " << c;
      // Bitwise: both monitors saw the exact same arrival sequence.
      EXPECT_EQ(a.ewma_abs[m], b.ewma_abs[m]) << where << " col " << c;
      EXPECT_EQ(a.ewma_rms[m], b.ewma_rms[m]) << where << " col " << c;
      EXPECT_EQ(a.abs_error[m].p50, b.abs_error[m].p50)
          << where << " col " << c;
      EXPECT_EQ(a.abs_error[m].p99, b.abs_error[m].p99)
          << where << " col " << c;
    }
  }
}

void ExpectSameQuality(const OnlineIim::Stats& want,
                       const OnlineIim::Stats& got, const char* where) {
  EXPECT_EQ(want.moo_probes, got.moo_probes) << where;
  EXPECT_EQ(want.moo_skipped, got.moo_skipped) << where;
  EXPECT_EQ(want.champion_switches, got.champion_switches) << where;
  ExpectSameColumns(want.quality, got.quality, where);
}

// --- Zero-impact contract ---------------------------------------------

// Drives a monitored and a quality-disabled engine through the same
// schedule of ingests, evictions and imputes; every answer and every core
// maintenance counter must match bitwise.
void ExpectObserveOnlyZeroImpact(const core::IimOptions& monitored) {
  data::Table full = HeterogeneousTable(260, 3, 17);
  core::IimOptions plain = monitored;
  plain.moo_sample_rate = 0.0;

  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, monitored);
  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, plain);
  ASSERT_TRUE(a_r.ok()) << a_r.status().ToString();
  ASSERT_TRUE(b_r.ok()) << b_r.status().ToString();
  OnlineIim& a = *a_r.value();
  OnlineIim& b = *b_r.value();

  std::vector<ScheduleOp> ops = MakeSchedule(99, 240, /*min_live=*/10,
                                             /*evict_p=*/0.2,
                                             /*impute_every=*/17);
  size_t compared = 0;
  for (const ScheduleOp& op : ops) {
    if (op.kind == ScheduleOp::kIngest) {
      ASSERT_TRUE(a.Ingest(full.Row(op.src_row)).ok());
      ASSERT_TRUE(b.Ingest(full.Row(op.src_row)).ok());
    } else if (op.kind == ScheduleOp::kEvict) {
      ASSERT_EQ(a.Evict(op.arrival).code(), b.Evict(op.arrival).code());
    } else {
      std::vector<double> probe = Probe(full, 250, kTarget);
      Result<double> va =
          a.ImputeOne(data::RowView(probe.data(), probe.size()));
      Result<double> vb =
          b.ImputeOne(data::RowView(probe.data(), probe.size()));
      ASSERT_EQ(va.ok(), vb.ok());
      if (va.ok()) {
        EXPECT_EQ(va.value(), vb.value());
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0u);
  // Monitoring left no trace in the engine: every maintenance counter the
  // core exposes is identical, and nothing was ever routed.
  OnlineIim::Stats sa = a.stats();
  OnlineIim::Stats sb = b.stats();
  EXPECT_GT(sa.moo_probes, 0u);
  EXPECT_EQ(sb.moo_probes, 0u);
  EXPECT_EQ(sa.routed_serves, 0u);
  EXPECT_EQ(sa.ensemble_serves, 0u);
  EXPECT_EQ(sa.imputed, sb.imputed);
  EXPECT_EQ(sa.evicted, sb.evicted);
  EXPECT_EQ(sa.models_solved, sb.models_solved);
  EXPECT_EQ(sa.models_invalidated, sb.models_invalidated);
  EXPECT_EQ(sa.global_fits_reused, sb.global_fits_reused);
  EXPECT_EQ(sa.holders_invalidated, sb.holders_invalidated);
  EXPECT_EQ(sa.fast_path_appends, sb.fast_path_appends);
  EXPECT_EQ(sa.downdates, sb.downdates);
  EXPECT_EQ(sa.downdate_fallbacks, sb.downdate_fallbacks);
  EXPECT_EQ(sa.backfills, sb.backfills);
  EXPECT_EQ(sa.compactions, sb.compactions);
  EXPECT_EQ(sa.postings_edges, sb.postings_edges);
  EXPECT_EQ(sa.adaptive_l_changes, sb.adaptive_l_changes);
  EXPECT_EQ(sa.orders_scanned, sb.orders_scanned);
  EXPECT_EQ(sa.orders_admitted, sb.orders_admitted);
  EXPECT_EQ(sa.admission_skips, sb.admission_skips);
}

TEST(QualityObserveOnlyTest, BitIdenticalToQualityDisabledEngine) {
  core::IimOptions opt = QualityOptions();
  opt.window_size = 80;
  ExpectObserveOnlyZeroImpact(opt);
}

// The down-date path repairs accumulators in place on eviction; a probe
// that folded, solved or cleaned a model would change which rows those
// repairs meet.
TEST(QualityObserveOnlyTest, BitIdenticalToQualityDisabledEngineDowndate) {
  core::IimOptions opt = QualityOptions();
  opt.window_size = 80;
  opt.downdate = true;
  ExpectObserveOnlyZeroImpact(opt);
}

// Adaptive engines probe dirty models at their last chosen l without
// running (or caching) a candidate sweep.
TEST(QualityObserveOnlyTest, BitIdenticalToQualityDisabledEngineAdaptive) {
  core::IimOptions opt = QualityOptions();
  opt.window_size = 80;
  opt.adaptive = true;
  opt.max_ell = 12;
  ExpectObserveOnlyZeroImpact(opt);
}

// --- Estimator convergence vs. the batch masking protocol -------------

class QualityConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QualityConvergenceTest, DecayedErrorTracksBatchMaskingError) {
  const uint64_t seed = GetParam();
  const size_t n = 400;
  data::Table full = StationaryTable(n, seed);
  core::IimOptions opt = QualityOptions();
  opt.moo_decay = 0.05;

  auto engine = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(engine.value()->Ingest(full.Row(i)).ok());
  }

  // Batch masking-one-out over the FINAL window, mean method: hold each
  // live target out, impute with the mean of the others, score via the
  // paper's RMS metric.
  const size_t live = opt.window_size;
  double sum = 0.0;
  for (size_t i = n - live; i < n; ++i) sum += full.Row(i)[kTarget];
  std::vector<eval::ScoredCell> cells;
  for (size_t i = n - live; i < n; ++i) {
    double truth = full.Row(i)[kTarget];
    eval::ScoredCell cell;
    cell.truth = truth;
    cell.imputed = (sum - truth) / static_cast<double>(live - 1);
    cells.push_back(cell);
  }
  Result<double> batch_rms = eval::RmsError(cells);
  ASSERT_TRUE(batch_rms.ok());

  std::vector<QualityColumnStats> quality = engine.value()->stats().quality;
  ASSERT_EQ(quality.size(), 1u);  // the target is the one probed column
  const QualityColumnStats& target_col = quality.back();
  ASSERT_GT(target_col.samples[kQualityMean], 30u);
  // The decayed online estimate and the batch protocol measure the same
  // stationary quantity; the tolerance covers EWMA variance and the
  // window drift between probes.
  double online = target_col.ewma_rms[kQualityMean];
  EXPECT_GT(online, 0.55 * batch_rms.value());
  EXPECT_LT(online, 1.8 * batch_rms.value());
  // The regression methods learn the linear relation the mean ignores,
  // so both must come out clearly ahead of it — and the champion is one
  // of them (on an exactly-global relation GLR legitimately edges out
  // the local-model IIM; what matters is that mean never wins).
  EXPECT_LT(target_col.ewma_rms[kQualityIim],
            target_col.ewma_rms[kQualityMean]);
  EXPECT_LT(target_col.ewma_rms[kQualityGlr],
            target_col.ewma_rms[kQualityMean]);
  EXPECT_TRUE(target_col.champion == kQualityIim ||
              target_col.champion == kQualityGlr)
      << target_col.champion;
}

INSTANTIATE_TEST_SUITE_P(Cells, QualityConvergenceTest,
                         ::testing::Values<uint64_t>(5, 23));

// --- Champion/challenger routing under drift --------------------------

TEST(QualityRoutingTest, AutoRouteSwitchesOffIimAndLowersDriftError) {
  const size_t head = 240;
  const size_t tail = 260;
  data::Table full = DriftTable(head, tail, 41);
  core::IimOptions observe = QualityOptions();
  observe.window_size = 96;
  observe.moo_decay = 0.2;
  observe.moo_min_samples = 12;
  observe.moo_margin = 0.05;
  core::IimOptions route = observe;
  route.quality_routing = core::IimOptions::QualityRouting::kAutoRoute;

  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, observe);
  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, route);
  ASSERT_TRUE(a_r.ok());
  ASSERT_TRUE(b_r.ok());
  OnlineIim& observer = *a_r.value();
  OnlineIim& router = *b_r.value();

  Rng probe_rng(97);
  double sq_observer = 0.0;
  double sq_router = 0.0;
  size_t served = 0;
  for (size_t i = 0; i < head + tail; ++i) {
    ASSERT_TRUE(observer.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(router.Ingest(full.Row(i)).ok());
    // Once the window lies fully in the drifted regime, serve held-out
    // probes drawn from that regime through both engines.
    if (i >= head + observe.window_size + 40 && i % 5 == 0) {
      double x0 = probe_rng.Uniform();
      double x1 = probe_rng.Uniform();
      double truth = 5.0 + probe_rng.Gaussian(0.0, 1.0);
      std::vector<double> probe = {
          x0, x1, std::numeric_limits<double>::quiet_NaN()};
      data::RowView row(probe.data(), probe.size());
      Result<double> va = observer.ImputeOne(row);
      Result<double> vb = router.ImputeOne(row);
      ASSERT_TRUE(va.ok());
      ASSERT_TRUE(vb.ok());
      sq_observer += (va.value() - truth) * (va.value() - truth);
      sq_router += (vb.value() - truth) * (vb.value() - truth);
      ++served;
    }
  }
  ASSERT_GT(served, 20u);

  OnlineIim::Stats so = observer.stats();
  OnlineIim::Stats sr = router.stats();
  // The router noticed the drift: at least one column's champion left
  // IIM, and tail requests were actually served off the IIM path.
  EXPECT_GE(sr.champion_switches, 1u);
  bool any_off_iim = false;
  for (const QualityColumnStats& col : sr.quality) {
    if (col.champion != kQualityIim) any_off_iim = true;
  }
  EXPECT_TRUE(any_off_iim);
  EXPECT_GT(sr.routed_serves + sr.ensemble_serves, 0u);
  // The observe-only engine never routes (same estimates, no action).
  EXPECT_EQ(so.routed_serves, 0u);
  EXPECT_EQ(so.ensemble_serves, 0u);
  // And routing paid off: lower held-out error on the drifted tail.
  double rms_observer = std::sqrt(sq_observer / static_cast<double>(served));
  double rms_router = std::sqrt(sq_router / static_cast<double>(served));
  EXPECT_LT(rms_router, rms_observer);
}

// The payload of section `tag` of a serialized image.
std::string SectionBytes(const std::string& image, uint32_t tag) {
  Result<persist::SnapshotView> view = persist::SnapshotView::Parse(image);
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return std::string();
  Result<persist::SectionReader> r = view.value().Section(tag);
  EXPECT_TRUE(r.ok());
  if (!r.ok()) return std::string();
  std::string bytes(r.value().remaining(), '\0');
  r.value().Bytes(bytes.data(), bytes.size());
  return bytes;
}

// Re-seals `image` with section `tag` carrying `payload` and every other
// section copied verbatim: how these tests forge images that a
// differently configured (or older) engine would have written.
std::string WithSection(const std::string& image, uint32_t tag,
                        const std::string& payload) {
  Result<persist::SnapshotView> view = persist::SnapshotView::Parse(image);
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return std::string();
  persist::SnapshotBuilder b(view.value().ops_covered());
  for (uint32_t t : {persist::kSecMeta, persist::kSecEngine, persist::kSecRows,
                     persist::kSecCoreMeta, persist::kSecCoreRows,
                     persist::kSecCoreOrders, persist::kSecCoreModels,
                     persist::kSecQuality}) {
    if (!view.value().Section(t).ok()) continue;
    const std::string bytes = t == tag ? payload : SectionBytes(image, t);
    b.BeginSection(t);
    b.PutBytes(bytes.data(), bytes.size());
  }
  return b.Finish();
}

// kSecQuality v2 field offsets: u32 layout | u64 probes | u64 skipped |
// u64 switches | u64 last-switch probe | u32 champion | methods...
constexpr size_t kQualitySwitchesAt = 4 + 8 + 8;
constexpr size_t kQualityChampionAt = kQualitySwitchesAt + 8 + 8;

TEST(QualityRoutingTest, KnnChampionServesBruteForceNeighborMean) {
  data::Table full = StationaryTable(150, 43);
  core::IimOptions opt = QualityOptions();
  opt.window_size = 64;
  opt.quality_routing = core::IimOptions::QualityRouting::kAutoRoute;
  // Beyond the probes this test runs: no method ever qualifies to
  // unseat the planted champion.
  opt.moo_min_samples = 1000;
  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(a_r.ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(a_r.value()->Ingest(full.Row(i)).ok());
  }
  // Crown kNN directly in the image (no churn window: zero switches), so
  // the restored engine routes every request to it.
  const std::string image = a_r.value()->SerializeSnapshot();
  std::string quality = SectionBytes(image, persist::kSecQuality);
  ASSERT_GT(quality.size(), kQualityChampionAt + 4);
  const uint64_t no_switches = 0;
  const uint32_t knn = kQualityKnn;
  std::memcpy(&quality[kQualitySwitchesAt], &no_switches, sizeof(no_switches));
  std::memcpy(&quality[kQualityChampionAt], &knn, sizeof(knn));

  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(b_r.ok());
  OnlineIim& engine = *b_r.value();
  ASSERT_TRUE(engine.RestoreFromSnapshot(
                        WithSection(image, persist::kSecQuality, quality))
                  .ok());
  // Holes and evictions: the kNN answer must follow the live window.
  ASSERT_TRUE(engine.Evict(70).ok());
  ASSERT_TRUE(engine.Evict(85).ok());
  for (size_t i = 100; i < 110; ++i) {
    ASSERT_TRUE(engine.Ingest(full.Row(i)).ok());
  }
  ASSERT_EQ(engine.stats().quality.back().champion, kQualityKnn);

  const data::Table live = engine.table();
  neighbors::BruteForceIndex brute(&live, kFeatures);
  neighbors::QueryOptions qopt;
  qopt.k = opt.k;
  std::vector<std::vector<double>> probes;
  for (size_t i = 110; i < 150; i += 3) {
    probes.push_back(Probe(full, i, kTarget));
  }
  std::vector<data::RowView> views;
  for (const std::vector<double>& p : probes) {
    views.emplace_back(p.data(), p.size());
  }
  std::vector<Result<double>> batch = engine.ImputeBatch(views);
  ASSERT_EQ(batch.size(), views.size());
  for (size_t p = 0; p < views.size(); ++p) {
    std::vector<neighbors::Neighbor> nn = brute.Query(views[p], qopt);
    ASSERT_EQ(nn.size(), opt.k);
    double sum = 0.0;
    for (const neighbors::Neighbor& nb : nn) {
      sum += live.At(nb.index, static_cast<size_t>(kTarget));
    }
    const double want = sum / static_cast<double>(nn.size());
    Result<double> one = engine.ImputeOne(views[p]);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(batch[p].ok());
    EXPECT_EQ(one.value(), want) << "probe " << p;
    EXPECT_EQ(batch[p].value(), want) << "probe " << p;
  }
  EXPECT_EQ(engine.stats().routed_serves, 2 * views.size());
}

// --- Time-based eviction ----------------------------------------------

TEST(QualityEvictionTest, EvictWhereAgreesAcrossEnginesWithHoles) {
  // Column 3 is a timestamp (not a feature, not the target).
  Rng rng(7);
  data::Table full(data::Schema::Default(4));
  for (size_t i = 0; i < 150; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    ASSERT_TRUE(full.AppendRow({x0, x1, 2.0 * x0 + x1 + rng.Gaussian(0, 0.1),
                                static_cast<double>(i)})
                    .ok());
  }
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 8;
  opt.downdate = false;  // bitwise cross-engine cells
  opt.timestamp_column = 3;

  // `swept` retires tuples by predicate and by timestamp; `manual`
  // retires the same arrivals one explicit Evict at a time.
  auto swept_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  auto manual_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(swept_r.ok());
  ASSERT_TRUE(manual_r.ok());
  OnlineIim& swept = *swept_r.value();
  OnlineIim& manual = *manual_r.value();

  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(swept.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(manual.Ingest(full.Row(i)).ok());
  }
  // Punch holes in the MIDDLE first — the sweep must not assume the
  // predicate matches an oldest-first prefix of the window.
  auto holes = [](uint64_t arrival, const data::RowView&) {
    return arrival % 7 == 3;
  };
  Result<size_t> ha = swept.EvictWhere(holes);
  ASSERT_TRUE(ha.ok());
  size_t hb = 0;
  for (uint64_t a = 0; a < 120; ++a) {
    if (a % 7 == 3 && manual.Evict(a).ok()) ++hb;
  }
  EXPECT_EQ(ha.value(), hb);
  EXPECT_GT(ha.value(), 0u);

  // Then retire everything older than t = 40 by timestamp (the timestamp
  // of arrival a is a), skipping the holes already punched.
  Result<size_t> ta = swept.EvictOlderThan(40.0);
  ASSERT_TRUE(ta.ok());
  size_t tb = 0;
  for (uint64_t a = 0; a < 40; ++a) {
    if (manual.IsLive(a) && manual.Evict(a).ok()) ++tb;
  }
  EXPECT_EQ(ta.value(), tb);
  EXPECT_GT(ta.value(), 0u);
  EXPECT_EQ(swept.size(), manual.size());

  // The engines still answer identically after the sweeps, and keep
  // agreeing as the stream continues.
  for (size_t i = 120; i < 150; ++i) {
    ASSERT_TRUE(swept.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(manual.Ingest(full.Row(i)).ok());
    if (i % 6 == 0) {
      std::vector<double> probe = full.Row(i).ToVector();
      probe[kTarget] = std::numeric_limits<double>::quiet_NaN();
      data::RowView row(probe.data(), probe.size());
      Result<double> va = swept.ImputeOne(row);
      Result<double> vb = manual.ImputeOne(row);
      ASSERT_TRUE(va.ok());
      ASSERT_TRUE(vb.ok());
      EXPECT_EQ(va.value(), vb.value());
    }
  }
}

TEST(QualityEvictionTest, EvictOlderThanNeedsTimestampColumn) {
  data::Table full = StationaryTable(30, 3);
  core::IimOptions opt;
  opt.k = 3;
  opt.ell = 6;
  auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(e_r.ok());
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(e_r.value()->Ingest(full.Row(i)).ok());
  }
  Result<size_t> r = e_r.value()->EvictOlderThan(10.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// --- Service overload-fallback fit cache ------------------------------

TEST(QualityServiceTest, FallbackFitIsCachedPerQuiescentSpan) {
  data::Table full = StationaryTable(40, 13);
  core::IimOptions opt;
  opt.k = 3;
  opt.ell = 6;
  auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(e_r.ok());

  ImputationService::Options sopt;
  sopt.max_batch = 1;  // every popped impute is its own batch
  sopt.fallback_watermark = 1;
  ImputationService service(e_r.value().get(), sopt);

  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.SubmitIngest(full.Row(i).ToVector()).get().ok());
  }
  service.Drain();

  // Six imputes queued behind a paused server: the first five pop with a
  // non-empty backlog (fallback), the sixth drains normally. Without the
  // cache this span would fit five times; with it, exactly once.
  auto submit_probes = [&](size_t n) {
    std::vector<std::future<Result<double>>> futs;
    for (size_t i = 0; i < n; ++i) {
      futs.push_back(service.SubmitImpute(Probe(full, 30, kTarget)));
    }
    return futs;
  };
  service.Pause();
  auto first = submit_probes(6);
  service.Resume();
  for (auto& f : first) ASSERT_TRUE(f.get().ok());
  service.Drain();
  ImputationService::Stats s1 = service.stats();
  EXPECT_EQ(s1.fallback_imputes, 5u);
  EXPECT_EQ(s1.fallback_fits, 1u);

  // A served mutation invalidates the cache; the next overloaded span
  // fits exactly once more.
  service.Pause();
  std::future<Status> ingest = service.SubmitIngest(full.Row(20).ToVector());
  auto second = submit_probes(6);
  service.Resume();
  ASSERT_TRUE(ingest.get().ok());
  for (auto& f : second) ASSERT_TRUE(f.get().ok());
  service.Drain();
  ImputationService::Stats s2 = service.stats();
  EXPECT_EQ(s2.fallback_imputes, 10u);
  EXPECT_EQ(s2.fallback_fits, 2u);
}

TEST(QualityServiceTest, QualityStatsSurfaceThroughService) {
  data::Table full = StationaryTable(120, 29);
  core::IimOptions opt = QualityOptions();
  auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(e_r.ok());
  ImputationService service(e_r.value().get());
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(service.SubmitIngest(full.Row(i).ToVector()).get().ok());
  }
  service.Drain();
  service.Pause();
  ImputationService::Stats s = service.stats();
  service.Resume();
  EXPECT_GT(s.moo_probes, 0u);
  ASSERT_EQ(s.quality.size(), 1u);
  EXPECT_GT(s.quality.back().samples[kQualityIim], 0u);
  EXPECT_GT(s.quality.back().samples[kQualityMean], 0u);
  EXPECT_GT(s.quality.back().samples[kQualityKnn], 0u);
  EXPECT_GT(s.quality.back().samples[kQualityGlr], 0u);
}

// The service re-summarizes the quality rings only when a probe landed
// since its last refresh; what it reports must still equal the engine's
// own summary at every quiesce point — after ingest rounds (probes move)
// and after impute-only rounds (they do not).
TEST(QualityServiceTest, QualityStatsEqualEngineAfterEveryDrain) {
  data::Table full = StationaryTable(160, 31);
  core::IimOptions opt = QualityOptions();
  opt.moo_sample_rate = 0.5;
  auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(e_r.ok());
  OnlineIim* engine = e_r.value().get();
  ImputationService service(engine);
  for (size_t round = 0; round < 8; ++round) {
    if (round % 2 == 0) {
      for (size_t i = round * 20; i < round * 20 + 40; ++i) {
        ASSERT_TRUE(service.SubmitIngest(full.Row(i).ToVector()).get().ok());
      }
    } else {
      for (size_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(
            service.SubmitImpute(Probe(full, i * 7, kTarget)).get().ok());
      }
    }
    service.Drain();
    ImputationService::Stats s = service.stats();
    OnlineIim::Stats es = engine->stats();
    EXPECT_EQ(s.moo_probes, es.moo_probes) << "round " << round;
    ExpectSameColumns(es.quality, s.quality, "after Drain");
  }
  EXPECT_GT(engine->stats().moo_probes, 0u);
}

// --- Persistence ------------------------------------------------------

TEST(QualitySnapshotTest, EstimatesRoundTripAndProbesStayDeterministic) {
  data::Table full = StationaryTable(90, 31);
  core::IimOptions opt = QualityOptions();
  opt.window_size = 0;  // unbounded: restore rebuilds the exact mirror

  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(a_r.ok());
  OnlineIim& original = *a_r.value();
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(original.Ingest(full.Row(i)).ok());
  }
  std::string bytes = original.SerializeSnapshot();

  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(b_r.ok());
  OnlineIim& restored = *b_r.value();
  ASSERT_TRUE(restored.RestoreFromSnapshot(bytes).ok());
  {
    OnlineIim::Stats sa = original.stats();
    OnlineIim::Stats sb = restored.stats();
    ExpectSameQuality(sa, sb, "post-restore");
  }

  // Feed both the same continuation: estimates restored bitwise and the
  // mirror rebuilt in arrival order mean every further probe matches.
  for (size_t i = 60; i < 90; ++i) {
    ASSERT_TRUE(original.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(restored.Ingest(full.Row(i)).ok());
  }
  OnlineIim::Stats sa = original.stats();
  OnlineIim::Stats sb = restored.stats();
  EXPECT_EQ(sa.moo_probes, sb.moo_probes);
  ASSERT_EQ(sa.quality.size(), sb.quality.size());
  for (size_t c = 0; c < sa.quality.size(); ++c) {
    for (int m = 0; m < kQualityMethods; ++m) {
      EXPECT_EQ(sa.quality[c].ewma_abs[m], sb.quality[c].ewma_abs[m])
          << "col " << c << " method " << m;
      EXPECT_EQ(sa.quality[c].samples[m], sb.quality[c].samples[m])
          << "col " << c << " method " << m;
    }
  }
}

TEST(QualitySnapshotTest, RestoreRefusesMismatchedQualityConfig) {
  data::Table full = StationaryTable(40, 37);
  core::IimOptions opt = QualityOptions();
  opt.window_size = 0;
  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(a_r.ok());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(a_r.value()->Ingest(full.Row(i)).ok());
  }
  std::string bytes = a_r.value()->SerializeSnapshot();

  core::IimOptions other = opt;
  other.moo_sample_rate = 0.5;
  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, other);
  ASSERT_TRUE(b_r.ok());
  Status st = b_r.value()->RestoreFromSnapshot(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("moo_sample_rate"), std::string::npos);
}

// Images of retired layouts are refused outright, never half-read: the v1
// quality section (one estimator block per gathered column — features
// were probed too) and the v3 fingerprint, which carried the moo_knn /
// moo_ell probe fan-ins.
TEST(QualitySnapshotTest, RetiredLayoutsAreRefused) {
  data::Table full = StationaryTable(40, 47);
  core::IimOptions opt = QualityOptions();
  opt.window_size = 0;
  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(a_r.ok());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(a_r.value()->Ingest(full.Row(i)).ok());
  }
  const std::string image = a_r.value()->SerializeSnapshot();
  auto refused = [&](const std::string& forged, const char* what) {
    auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
    ASSERT_TRUE(e_r.ok());
    Status st = e_r.value()->RestoreFromSnapshot(forged);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << what << ": " << st.ToString();
  };
  auto put = [](std::string* out, const void* p, size_t n) {
    out->append(static_cast<const char*>(p), n);
  };

  // v1 quality section: layout 1, d = q + 1 monitored columns, counters,
  // then per column its champion state and four empty method blocks.
  std::string v1;
  const uint32_t layout1 = 1;
  const uint64_t d = kFeatures.size() + 1;
  const uint64_t zero64 = 0;
  const uint32_t zero32 = 0;
  const double zero = 0.0;
  put(&v1, &layout1, 4);
  put(&v1, &d, 8);
  for (int i = 0; i < 3; ++i) put(&v1, &zero64, 8);
  for (uint64_t c = 0; c < d; ++c) {
    put(&v1, &zero64, 8);
    put(&v1, &zero32, 4);
    put(&v1, &zero64, 8);
    put(&v1, &zero64, 8);
    for (int m = 0; m < kQualityMethods; ++m) {
      put(&v1, &zero64, 8);
      put(&v1, &zero, 8);
      put(&v1, &zero, 8);
      put(&v1, &zero64, 8);
    }
  }
  refused(WithSection(image, persist::kSecQuality, v1), "v1 quality section");

  // v3 fingerprint: the current one under layout 3, with the two u64
  // fan-ins after moo_decay. Walk the v4 fields up to moo_decay to find
  // the insertion point.
  const std::string meta = SectionBytes(image, persist::kSecMeta);
  persist::SectionReader r(meta.data(), meta.size());
  r.U32();  // layout
  r.U64();  // arity
  r.U32();  // target
  const uint64_t q = r.U64();
  for (uint64_t j = 0; j < q; ++j) r.U32();
  r.U64();  // k
  r.U64();  // ell
  r.F64();  // alpha
  r.U8();   // weighting
  r.U64();  // window
  r.U8();   // downdate
  r.U8();   // adaptive
  r.U64();  // max_ell
  r.U64();  // step_h
  r.U64();  // validation fan-out
  r.F64();  // moo_sample_rate
  r.F64();  // moo_decay
  ASSERT_TRUE(r.ok());
  const size_t at = meta.size() - r.remaining();
  std::string fanins;
  put(&fanins, &zero64, 8);  // moo_knn
  put(&fanins, &zero64, 8);  // moo_ell
  std::string v3 = meta.substr(0, at) + fanins + meta.substr(at);
  const uint32_t layout3 = 3;
  std::memcpy(&v3[0], &layout3, 4);
  refused(WithSection(image, persist::kSecMeta, v3), "v3 fingerprint");
  // The same fan-ins under the current layout number are a forgery.
  std::string forged = v3;
  const uint32_t layout4 = 4;
  std::memcpy(&forged[0], &layout4, 4);
  refused(WithSection(image, persist::kSecMeta, forged),
          "fan-ins in a v4 fingerprint");

  // And the untouched image still restores (the forging helper itself is
  // sound).
  auto ok_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(ok_r.ok());
  EXPECT_TRUE(ok_r.value()
                  ->RestoreFromSnapshot(WithSection(
                      image, persist::kSecMeta, meta))
                  .ok());
}

}  // namespace
}  // namespace iim::stream
