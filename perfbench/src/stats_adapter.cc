#include "stats_adapter.h"

namespace perfbench {

namespace {

double D(size_t v) { return static_cast<double>(v); }

}  // namespace

Counters FromEngine(const iim::stream::OnlineIim::Stats& s) {
  return {
      {"engine.ingested", D(s.ingested)},
      {"engine.imputed", D(s.imputed)},
      {"engine.evicted", D(s.evicted)},
      {"order_core.orders_scanned", D(s.orders_scanned)},
      {"order_core.orders_admitted", D(s.orders_admitted)},
      {"order_core.backfills", D(s.backfills)},
      {"order_core.downdates", D(s.downdates)},
      {"order_core.downdate_fallbacks", D(s.downdate_fallbacks)},
      {"order_core.models_solved", D(s.models_solved)},
      {"order_core.global_fits_reused", D(s.global_fits_reused)},
      {"persist.snapshots_written", D(s.snapshots_written)},
      {"persist.snapshot_write_failures", D(s.snapshot_write_failures)},
      {"persist.replayed_records", D(s.log_records_replayed)},
      {"persist.serialize_max_ms", s.max_snapshot_serialize_seconds * 1e3},
      {"quality.probes", D(s.moo_probes)},
  };
}

Counters FromService(const iim::stream::ImputationService::Stats& s) {
  return {
      {"service.imputations", D(s.imputations)},
      {"service.batches", D(s.batches)},
      {"service.queue_shed", D(s.queue_shed)},
      {"service.deadline_expired", D(s.deadline_expired)},
      {"service.fallback_imputes", D(s.fallback_imputes)},
      {"service.serve_ingest_p99_ms", s.ingest_latency.p99 * 1e3},
      {"service.serve_impute_p99_ms", s.impute_latency.p99 * 1e3},
  };
}

Counters FromIndex(const iim::stream::DynamicIndex::Stats& s) {
  return {
      {"index.rebuilds", D(s.rebuilds)},
      {"index.discarded", D(s.discarded)},
      {"index.compactions", D(s.compactions)},
      {"index.tail_size", D(s.tail_size)},
      {"index.append_hold_max_ms", s.max_append_hold_seconds * 1e3},
      {"index.compact_hold_max_ms", s.max_compact_hold_seconds * 1e3},
  };
}

double Delta(const Counters& after, const Counters& before,
             const std::string& name) {
  return after.at(name) - before.at(name);
}

}  // namespace perfbench
