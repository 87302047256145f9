// The benchmark's workloads. Each one fills the report with its metrics
// and output-gate checks; see perfbench/README.md for why each exists.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "data/table.h"
#include "datasets/generator.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

// The workload's rows: `spec` generated with a fixed dataset seed, its
// rows shuffled by `seed`. The run's seed draws which rows play which
// part and in what order, not the dataset's regimes, so seeds differ in
// their inputs but not in how hard the data is.
bool ShuffledRows(const iim::datasets::DatasetSpec& spec, uint64_t seed,
                  iim::data::Table* out);

// ingest_window, impute_heavy, durable_monitored: the ImputationService
// over one OnlineIim, driven by one open-loop generator, then the same op
// sequence replayed straight into fresh engines.
bool IsStreamWorkload(const std::string& name);
void RunStream(const RunConfig& cfg, Tracer* tracer, Report* report);

// The batch core phase of traced runs: IimImputer with Algorithm 3 on the
// CA spec; reports the core.* layer metrics.
void RunBatchCore(const RunConfig& cfg, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
