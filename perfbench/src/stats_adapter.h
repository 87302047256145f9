// The one place that knows the program's Stats structs. Every counter the
// benchmark reads from OnlineIim::Stats, ImputationService::Stats and
// DynamicIndex::Stats is mapped here to a `layer.field` name; workloads
// only see the names. When the counters move into a metrics registry,
// only this adapter changes.

#ifndef PERFBENCH_STATS_ADAPTER_H_
#define PERFBENCH_STATS_ADAPTER_H_

#include <map>
#include <string>

#include "stream/dynamic_index.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"

namespace perfbench {

using Counters = std::map<std::string, double>;

Counters FromEngine(const iim::stream::OnlineIim::Stats& s);
Counters FromService(const iim::stream::ImputationService::Stats& s);
Counters FromIndex(const iim::stream::DynamicIndex::Stats& s);

// after[name] - before[name]; both must come from the same adapter.
double Delta(const Counters& after, const Counters& before,
             const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_ADAPTER_H_
