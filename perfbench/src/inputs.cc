#include <cstdio>
#include <numeric>

#include "common/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Seed of the generated dataset itself, fixed like the paper's real
// datasets are.
constexpr uint64_t kDatasetSeed = 2019;

}  // namespace

bool ShuffledRows(const iim::datasets::DatasetSpec& spec, uint64_t seed,
                  iim::data::Table* out) {
  auto gen = iim::datasets::Generate(spec, kDatasetSeed);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate %s: %s\n", spec.name.c_str(),
                 gen.status().ToString().c_str());
    return false;
  }
  std::vector<size_t> order(spec.n);
  std::iota(order.begin(), order.end(), 0);
  iim::Rng rng(seed);
  rng.Shuffle(&order);
  *out = gen.value().table.TakeRows(order);
  return true;
}

}  // namespace perfbench
