// Microbenchmarks (google-benchmark) for the kernels behind Table III and
// the imputation fast paths:
//   - from-scratch ridge fit over l rows vs incremental update + solve
//     (the Proposition 3 claim: constant vs linear in l);
//   - kd-tree vs brute-force neighbor queries;
//   - candidate combination (Formulas 10-12);
//   - one full IIM ImputeOne call;
//   - the checkpoint codec: CRC-32 throughput and a streaming engine's
//     snapshot serialize / restore (the engine-thread checkpoint pause
//     and the decode half of recovery).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/iim_imputer.h"
#include "datasets/generator.h"
#include "datasets/specs.h"
#include "neighbors/kdtree.h"
#include "regress/incremental_ridge.h"
#include "regress/ridge.h"
#include "stream/online_iim.h"

namespace {

constexpr size_t kFeatures = 8;

iim::linalg::Matrix RandomDesign(size_t rows, iim::Rng* rng) {
  iim::linalg::Matrix x(rows, kFeatures);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < kFeatures; ++j) x(i, j) = rng->Uniform(-3, 3);
  }
  return x;
}

// Table III, "from scratch": building U, V costs m^2 * l.
void BM_RidgeFromScratch(benchmark::State& state) {
  size_t ell = static_cast<size_t>(state.range(0));
  iim::Rng rng(1);
  iim::linalg::Matrix x = RandomDesign(ell, &rng);
  iim::linalg::Vector y(ell);
  for (double& v : y) v = rng.Uniform(-5, 5);
  for (auto _ : state) {
    auto fit = iim::regress::FitRidge(x, y);
    benchmark::DoNotOptimize(fit);
  }
  state.SetComplexityN(static_cast<int64_t>(ell));
}
BENCHMARK(BM_RidgeFromScratch)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::oN);

// Table III, "incremental": folding in h = 16 new rows + solve is O(m^2 h
// + m^3), independent of the l rows already absorbed.
void BM_RidgeIncrementalStep(benchmark::State& state) {
  size_t ell = static_cast<size_t>(state.range(0));
  const size_t h = 16;
  iim::Rng rng(2);
  iim::linalg::Matrix base = RandomDesign(ell, &rng);
  iim::linalg::Matrix extra = RandomDesign(h, &rng);
  iim::linalg::Vector y_base(ell), y_extra(h);
  for (double& v : y_base) v = rng.Uniform(-5, 5);
  for (double& v : y_extra) v = rng.Uniform(-5, 5);

  iim::regress::IncrementalRidge warm(kFeatures);
  warm.AddRows(base, y_base);
  for (auto _ : state) {
    iim::regress::IncrementalRidge step = warm;  // U, V snapshot
    step.AddRows(extra, y_extra);
    auto fit = step.Solve();
    benchmark::DoNotOptimize(fit);
  }
  state.SetComplexityN(static_cast<int64_t>(ell));
}
BENCHMARK(BM_RidgeIncrementalStep)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::o1);

void BM_NeighborQuery(benchmark::State& state, bool use_kdtree) {
  size_t n = static_cast<size_t>(state.range(0));
  iim::datasets::DatasetSpec spec;
  spec.name = "bench";
  spec.n = n;
  spec.m = 4;
  spec.regimes = 3;
  spec.exogenous = 2;
  auto gen = iim::datasets::Generate(spec, 3);
  if (!gen.ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  const iim::data::Table& t = gen.value().table;
  std::vector<int> cols = {0, 1, 2};
  std::unique_ptr<iim::neighbors::NeighborIndex> index;
  if (use_kdtree) {
    index = std::make_unique<iim::neighbors::KdTreeIndex>(&t, cols);
  } else {
    index = std::make_unique<iim::neighbors::BruteForceIndex>(&t, cols);
  }
  iim::neighbors::QueryOptions qopt;
  qopt.k = 10;
  size_t probe = 0;
  for (auto _ : state) {
    auto result = index->Query(t.Row(probe % n), qopt);
    benchmark::DoNotOptimize(result);
    ++probe;
  }
}
void BM_BruteForceQuery(benchmark::State& state) {
  BM_NeighborQuery(state, false);
}
void BM_KdTreeQuery(benchmark::State& state) {
  BM_NeighborQuery(state, true);
}
BENCHMARK(BM_BruteForceQuery)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_KdTreeQuery)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_CombineCandidates(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  iim::Rng rng(4);
  std::vector<double> candidates(k);
  for (double& c : candidates) c = rng.Uniform(0, 10);
  for (auto _ : state) {
    auto v = iim::core::CombineCandidates(candidates);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_CombineCandidates)->Arg(5)->Arg(20)->Arg(100);

// Learning phase (Algorithm 3, adaptive) across thread counts: Arg0 = n,
// Arg1 = threads. This is the headline number of BENCH_learning.json; the
// models are bit-identical for every thread count, so the runs only differ
// in wall-clock.
void BM_IimLearnAdaptive(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  iim::datasets::DatasetSpec spec;
  spec.name = "bench";
  spec.n = n;
  spec.m = 5;
  spec.regimes = 3;
  spec.exogenous = 2;
  auto gen = iim::datasets::Generate(spec, 5);
  if (!gen.ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  const iim::data::Table& t = gen.value().table;

  iim::core::IimOptions opt;
  opt.k = 5;
  opt.adaptive = true;
  opt.step_h = 2;
  opt.max_ell = 50;
  opt.threads = threads;
  for (auto _ : state) {
    iim::core::IimImputer iim(opt);
    if (!iim.Fit(t, 4, {0, 1, 2, 3}).ok()) {
      state.SkipWithError("fit failed");
      return;
    }
    benchmark::DoNotOptimize(iim.learning_seconds());
  }
}
BENCHMARK(BM_IimLearnAdaptive)
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({5000, 4})
    ->Args({5000, 8})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

// Batched imputation phase across thread counts: Arg0 = n, Arg1 = threads.
void BM_IimImputeBatch(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  iim::datasets::DatasetSpec spec;
  spec.name = "bench";
  spec.n = n;
  spec.m = 5;
  spec.regimes = 3;
  spec.exogenous = 2;
  auto gen = iim::datasets::Generate(spec, 5);
  if (!gen.ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  const iim::data::Table& t = gen.value().table;

  iim::core::IimOptions opt;
  opt.k = 5;
  opt.ell = 20;
  opt.threads = threads;
  iim::core::IimImputer iim(opt);
  if (!iim.Fit(t, 4, {0, 1, 2, 3}).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  std::vector<iim::data::RowView> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) rows.push_back(t.Row(i));
  for (auto _ : state) {
    auto values = iim.ImputeBatch(rows);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_IimImputeBatch)
    ->Args({5000, 1})
    ->Args({5000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_IimImputeOne(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  iim::datasets::DatasetSpec spec;
  spec.name = "bench";
  spec.n = n;
  spec.m = 5;
  spec.regimes = 3;
  spec.exogenous = 2;
  auto gen = iim::datasets::Generate(spec, 5);
  if (!gen.ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  const iim::data::Table& t = gen.value().table;

  iim::core::IimOptions opt;
  opt.k = 5;
  opt.ell = 20;
  iim::core::IimImputer iim(opt);
  if (!iim.Fit(t, 4, {0, 1, 2, 3}).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  size_t probe = 0;
  for (auto _ : state) {
    auto v = iim.ImputeOne(t.Row(probe % n));
    benchmark::DoNotOptimize(v);
    ++probe;
  }
}
BENCHMARK(BM_IimImputeOne)->Arg(1000)->Arg(10000);

// CRC-32 over 1 MB: the per-byte cost every snapshot section, snapshot
// footer and write-ahead record pays.
void BM_Crc32(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  iim::Rng rng(13);
  std::vector<unsigned char> buf(n);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(iim::Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(1 << 20);

// A streaming engine holding an n-row CCPP window (default options): the
// image a checkpoint writes and a recovery reads.
std::unique_ptr<iim::stream::OnlineIim> LoadedEngine(size_t n) {
  iim::datasets::DatasetSpec spec = iim::datasets::Ccpp();
  spec.n = n;
  auto gen = iim::datasets::Generate(spec, 5);
  if (!gen.ok()) return nullptr;
  const iim::data::Table& t = gen.value().table;
  int target = static_cast<int>(t.NumCols()) - 1;
  std::vector<int> features;
  for (int j = 0; j < target; ++j) features.push_back(j);
  auto engine = iim::stream::OnlineIim::Create(t.schema(), target, features,
                                               iim::core::IimOptions());
  if (!engine.ok()) return nullptr;
  for (size_t i = 0; i < n; ++i) {
    if (!engine.value()->Ingest(t.Row(i)).ok()) return nullptr;
  }
  engine.value()->WaitForIndexRebuild();
  return std::move(engine).value();
}

void BM_SnapshotSerialize(benchmark::State& state) {
  auto engine = LoadedEngine(static_cast<size_t>(state.range(0)));
  if (engine == nullptr) {
    state.SkipWithError("engine setup failed");
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::string image = engine->SerializeSnapshot();
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.counters["image_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotSerialize)->Arg(10000)->Unit(benchmark::kMillisecond);

// Parse + decode + install into a fresh engine (creation included: a
// restore needs an empty engine, and Create is cheap next to the image).
void BM_SnapshotRestore(benchmark::State& state) {
  auto engine = LoadedEngine(static_cast<size_t>(state.range(0)));
  if (engine == nullptr) {
    state.SkipWithError("engine setup failed");
    return;
  }
  const std::string image = engine->SerializeSnapshot();
  const iim::data::Schema& schema = engine->table().schema();
  for (auto _ : state) {
    auto fresh = iim::stream::OnlineIim::Create(
        schema, engine->target(), engine->features(), engine->options());
    if (!fresh.ok() || !fresh.value()->RestoreFromSnapshot(image).ok()) {
      state.SkipWithError("restore failed");
      return;
    }
    benchmark::DoNotOptimize(fresh.value()->size());
  }
}
BENCHMARK(BM_SnapshotRestore)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
