// Stream workloads: ImputationService over one OnlineIim.
//
// A run, in order:
//   1. Inputs from the seed: the CCPP table (q = 4 features, target = last
//      column) shuffled by the seed; its first `window` rows are the
//      initial window and row window + i feeds op i. An ingest op carries
//      the full row; an impute op carries it with the target masked and
//      keeps the truth.
//   2. Engine A: Create + load the window (timed: setup_s).
//   3. One generator thread submits ops[0, open_ops) open loop at the
//      offered rate; a collector thread stamps each future's resolution.
//      Latency counts from the op's due time. Both threads spin rather
//      than sleep just before an op is due or resolves. Then
//      ops[open_ops, n) run closed loop with kFloodInFlight ops in flight
//      (throughput).
//   4. Output gate on A: online vs a batch refit on table(). Then A is
//      closed and recovered (recovery_s), and the recovered answers are
//      compared with A's: durable runs reopen A from disk, the others
//      restore a fresh engine from A's snapshot image. Recoveries run in
//      rounds here and after steps 5 and 6.
//   5. Engine B: setup, then the same op sequence replayed straight into
//      the engine, spans off — the single-threaded baseline. Its answers
//      must equal the service's bitwise.
//   6. More set-ups that serve nothing, for a steadier setup_s.
//   7. Engine C: setup; with --trace 1 the replay again with spans on,
//      which gives the per-layer numbers and the tracing overhead.
//
// Outputs are a pure function of (workload, seed, seconds): one thread
// submits, in a fixed order; the queue is unbounded and no deadline or
// fallback is set, so no op is ever shed or rerouted; op counts are fixed
// from the offered rates, never from measured time.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mean_imputer.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/iim_imputer.h"
#include "datasets/specs.h"
#include "stats_adapter.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using iim::stream::ImputationService;
using iim::stream::OnlineIim;

struct StreamShape {
  const char* name;
  double ingest_share;
  // Open-loop offered rate, ops/s. Each sits at an eighth to a quarter
  // of the mix's capacity, so the backlog stays bounded between
  // compaction and snapshot stalls even while the host runs slow.
  double offered_rate;
  // Sizes the closed-loop flood phase's op count (about the mix's
  // capacity); never a measured value, so op counts repeat exactly.
  double flood_rate;
  bool durable;
};

constexpr StreamShape kShapes[] = {
    {"ingest_window", 0.9, 500.0, 4000.0, false},
    {"impute_heavy", 0.1, 2000.0, 16000.0, false},
    {"durable_monitored", 0.9, 500.0, 3000.0, true},
};

// Share of --seconds spent in the open-loop phase; the rest is the flood.
constexpr double kOpenShare = 0.75;
constexpr size_t kWindow = 10000;
constexpr size_t kSmokeWindow = 600;
constexpr size_t kSmokeOps = 300;  // per phase
// Closed-loop flood: ops kept in flight (several 64-request micro-batches).
constexpr size_t kFloodInFlight = 256;
// The service's default micro-batch bound; the replay batches the same
// way (values do not depend on batching, see ImputationService).
constexpr size_t kMaxBatch = 64;
// Probes for the refit and recovery comparisons.
constexpr size_t kCheckProbes = 1000;
constexpr double kTolerance = 1e-7;
// Recoveries at each of three points of the run; recovery_s is the
// median of all.
constexpr int kRecoveryRounds = 5;
// Set-ups per run, engines A, B and C included; setup_s is their median.
constexpr size_t kSetups = 9;
// The generator sleeps until this long before an op is due, then spins.
constexpr std::chrono::microseconds kSpinBeforeDue{100};

struct StreamWorkload {
  const StreamShape* shape = nullptr;
  iim::data::Table data;
  size_t window = 0;
  int target = 0;
  std::vector<int> features;
  // Per op: kind, submitted values (target masked for imputes), truth.
  std::vector<bool> ingest;
  std::vector<std::vector<double>> rows;
  std::vector<double> truth;
  size_t open_ops = 0;
  size_t n() const { return rows.size(); }
};

struct Outcome {
  iim::Status status;
  double value = std::numeric_limits<double>::quiet_NaN();
};

iim::data::RowView View(const std::vector<double>& v) {
  return iim::data::RowView(v.data(), v.size());
}

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

bool MakeWorkload(const RunConfig& cfg, const StreamShape& shape,
                  StreamWorkload* w) {
  w->shape = &shape;
  w->window = cfg.smoke ? kSmokeWindow : kWindow;
  size_t open = cfg.smoke ? kSmokeOps
                          : static_cast<size_t>(shape.offered_rate *
                                                cfg.seconds * kOpenShare);
  size_t flood = cfg.smoke ? kSmokeOps
                           : static_cast<size_t>(shape.flood_rate * cfg.seconds *
                                                 (1.0 - kOpenShare));
  size_t n = open + flood;
  iim::datasets::DatasetSpec spec = iim::datasets::Ccpp();
  spec.n = w->window + n;
  if (!ShuffledRows(spec, cfg.seed, &w->data)) return false;
  w->target = static_cast<int>(spec.m) - 1;
  for (int f = 0; f < w->target; ++f) w->features.push_back(f);
  w->open_ops = open;
  iim::Rng rng(cfg.seed ^ 0x9e3779b97f4a7c15ull);
  for (size_t i = 0; i < n; ++i) {
    bool ingest = rng.Bernoulli(shape.ingest_share);
    std::vector<double> row = w->data.Row(w->window + i).ToVector();
    double truth = row[static_cast<size_t>(w->target)];
    if (!ingest) {
      row[static_cast<size_t>(w->target)] =
          std::numeric_limits<double>::quiet_NaN();
    }
    w->ingest.push_back(ingest);
    w->rows.push_back(std::move(row));
    w->truth.push_back(truth);
  }
  return true;
}

iim::core::IimOptions EngineOptions(const RunConfig& cfg,
                                    const StreamWorkload& w,
                                    const std::string& persist_dir) {
  iim::core::IimOptions opt;  // threads = 1, down-date on
  opt.window_size = w.window;
  if (w.shape->durable) {
    opt.persist_dir = persist_dir;
    opt.snapshot_every = cfg.smoke ? 100 : 1000;
    opt.wal_fsync_every = 0;
    opt.moo_sample_rate = 0.01;
  }
  return opt;
}

// Create + load the window; the time until the first imputation can be
// served.
std::unique_ptr<OnlineIim> SetUp(const StreamWorkload& w,
                                 const iim::core::IimOptions& opt,
                                 std::vector<double>* setup_s) {
  if (!opt.persist_dir.empty()) {
    fs::remove_all(opt.persist_dir);
    fs::create_directories(opt.persist_dir);
  }
  iim::Stopwatch sw;
  auto created = OnlineIim::Create(w.data.schema(), w.target, w.features, opt);
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n", created.status().ToString().c_str());
    return nullptr;
  }
  std::unique_ptr<OnlineIim> engine = std::move(created).value();
  for (size_t r = 0; r < w.window; ++r) {
    iim::Status st = engine->Ingest(w.data.Row(r));
    if (!st.ok()) {
      std::fprintf(stderr, "window row %zu: %s\n", r, st.ToString().c_str());
      return nullptr;
    }
  }
  setup_s->push_back(sw.ElapsedSeconds());
  return engine;
}

// ---------------------------------------------------------------------------
// The service run.

struct ServiceRun {
  std::vector<Outcome> out;
  // Open-loop phase: per op, ms from its due time to its resolution.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  size_t backlog_max = 0;
  double flood_seconds = 0.0;
  ImputationService::Stats stats;
};

struct Pending {
  size_t op = 0;
  Clock::time_point due;
  std::future<iim::Status> status;          // ingest
  std::future<iim::Result<double>> value;   // impute
};

// Spins until the future is ready, so the caller stamps the resolution
// within microseconds instead of after a thread wake-up, whose delay on a
// VM would be measurement noise.
template <typename T>
void SpinUntilReady(const std::future<T>& f) {
  while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    std::this_thread::yield();
  }
}

void Resolve(const StreamWorkload& w, Pending* p, Outcome* out) {
  if (w.ingest[p->op]) {
    SpinUntilReady(p->status);
    out->status = p->status.get();
    return;
  }
  SpinUntilReady(p->value);
  iim::Result<double> r = p->value.get();
  out->status = r.status();
  if (r.ok()) out->value = r.value();
}

ServiceRun DriveService(OnlineIim* engine, const StreamWorkload& w) {
  ServiceRun run;
  run.out.resize(w.n());
  run.latency_ms.resize(w.open_ops);
  ImputationService::Options so;
  so.max_queue = 0;  // unbounded: a shed ingest would change later answers
  ImputationService service(engine, so);
  auto submit = [&](size_t i, Clock::time_point due) {
    Pending p;
    p.op = i;
    p.due = due;
    if (w.ingest[i]) {
      p.status = service.SubmitIngest(w.rows[i]);
    } else {
      p.value = service.SubmitImpute(w.rows[i]);
    }
    return p;
  };

  // Open loop: ops are due on a fixed schedule whatever the service does.
  // The collector sleeps while nothing is in flight and spins on the
  // oldest pending future otherwise (see SpinUntilReady).
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool done = false;
  std::atomic<size_t> resolved{0};
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !handoff.empty(); });
        if (handoff.empty()) return;
        p = std::move(handoff.front());
        handoff.pop_front();
      }
      Resolve(w, &p, &run.out[p.op]);
      run.latency_ms[p.op] = MsSince(p.due);
      resolved.fetch_add(1, std::memory_order_release);
    }
  });
  const auto period = std::chrono::duration<double>(1.0 / w.shape->offered_rate);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < w.open_ops; ++i) {
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * i);
    // Sleep, then spin the last stretch: a late wake-up would count as
    // latency of the op.
    std::this_thread::sleep_until(due - kSpinBeforeDue);
    while (Clock::now() < due) std::this_thread::yield();
    run.lag_ms.push_back(MsSince(due));
    Pending p = submit(i, due);
    run.backlog_max = std::max(
        run.backlog_max, i + 1 - resolved.load(std::memory_order_acquire));
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();

  // Closed-loop flood: a bounded number of ops in flight.
  std::deque<Pending> inflight;
  iim::Stopwatch flood;
  auto resolve_front = [&] {
    Resolve(w, &inflight.front(), &run.out[inflight.front().op]);
    inflight.pop_front();
  };
  for (size_t i = w.open_ops; i < w.n(); ++i) {
    inflight.push_back(submit(i, Clock::now()));
    if (inflight.size() >= kFloodInFlight) resolve_front();
  }
  while (!inflight.empty()) resolve_front();
  run.flood_seconds = flood.ElapsedSeconds();
  service.Drain();
  run.stats = service.stats();
  service.Shutdown();
  return run;
}

// ---------------------------------------------------------------------------
// The direct-drive replay.

struct ReplayRun {
  std::vector<Outcome> out;
  double seconds = 0.0;
  // Traced only.
  std::vector<double> probe_ingest_ms;
  double tail_max = 0.0;
  size_t index_queries = 0;
  size_t index_neighbors = 0;
};

ReplayRun Replay(OnlineIim* engine, const StreamWorkload& w, Tracer* tr) {
  ReplayRun run;
  run.out.resize(w.n());
  const iim::stream::QualityMonitor* monitor = engine->quality_monitor();
  iim::neighbors::QueryOptions qo;
  qo.k = engine->options().k;
  std::vector<double> gathered(w.features.size());
  std::vector<iim::data::RowView> views;
  iim::Stopwatch sw;
  for (size_t i = 0; i < w.n();) {
    const int64_t op = static_cast<int64_t>(i);
    if (w.ingest[i]) {
      size_t root = tr->Begin("replay.ingest", op);
      uint64_t probes = monitor != nullptr ? monitor->probes() : 0;
      size_t s = tr->Begin("engine.ingest", op, root);
      run.out[i].status = engine->Ingest(View(w.rows[i]));
      double ms = tr->End(s);
      if (tr->enabled()) {
        if (monitor != nullptr && monitor->probes() != probes) {
          run.probe_ingest_ms.push_back(ms);
        }
        run.tail_max = std::max(
            run.tail_max, FromIndex(engine->index().stats()).at("index.tail_size"));
      }
      tr->End(root);
      ++i;
      continue;
    }
    // Open-loop requests reach the service about one at a time, so each is
    // its own engine call there (and its span is the engine share of that
    // request's latency); flood requests coalesce like the service's
    // micro-batches.
    const size_t batch = i < w.open_ops ? 1 : kMaxBatch;
    size_t end = i;
    while (end < w.n() && !w.ingest[end] && end - i < batch) ++end;
    size_t root = tr->Begin("replay.impute_run", op);
    views.clear();
    for (size_t j = i; j < end; ++j) {
      views.push_back(View(w.rows[j]));
      if (tr->enabled()) {
        // The index covers the gathered feature projection.
        for (size_t f = 0; f < w.features.size(); ++f) {
          gathered[f] = w.rows[j][static_cast<size_t>(w.features[f])];
        }
        size_t s = tr->Begin("index.query", static_cast<int64_t>(j), root);
        auto nbrs = engine->index().Query(
            iim::data::RowView(gathered.data(), gathered.size()), qo);
        tr->End(s);
        ++run.index_queries;
        run.index_neighbors += nbrs.size();
      }
    }
    size_t s = tr->Begin("engine.impute_batch", op, root);
    std::vector<iim::Result<double>> res = engine->ImputeBatch(views);
    tr->End(s);
    tr->End(root);
    for (size_t j = i; j < end; ++j) {
      const iim::Result<double>& r = res[j - i];
      run.out[j].status = r.status();
      if (r.ok()) run.out[j].value = r.value();
    }
    i = end;
  }
  run.seconds = sw.ElapsedSeconds();
  return run;
}

// ---------------------------------------------------------------------------
// Output gate helpers.

size_t FailedOps(const std::vector<Outcome>& out) {
  size_t failed = 0;
  for (const Outcome& o : out) {
    // A non-durable acknowledgement is OK-coded but is a failure here.
    if (!o.status.ok() || o.status.nondurable()) ++failed;
  }
  return failed;
}

void CheckOpsOk(const std::vector<Outcome>& out, const char* who,
                Report* report) {
  size_t failed = FailedOps(out);
  std::string what = std::string("every ") + who + " op status is OK";
  if (failed > 0) {
    for (const Outcome& o : out) {
      if (!o.status.ok() || o.status.nondurable()) {
        what += " (" + std::to_string(failed) + " failed, first: " +
                o.status.ToString() + ")";
        break;
      }
    }
  }
  report->Check(failed == 0, what);
}

void CheckBitwise(const std::vector<Outcome>& service,
                  const std::vector<Outcome>& replay, const char* who,
                  Report* report) {
  size_t mismatches = 0;
  size_t first = service.size();
  for (size_t i = 0; i < service.size(); ++i) {
    bool same = service[i].status.code() == replay[i].status.code() &&
                BitwiseEqual(service[i].value, replay[i].value);
    if (!same) {
      ++mismatches;
      first = std::min(first, i);
    }
  }
  std::string what = std::string("every service answer equals the ") + who +
                     " bitwise";
  if (mismatches > 0) {
    what += " (" + std::to_string(mismatches) + " differ, first at op " +
            std::to_string(first) + ")";
  }
  report->Check(mismatches == 0, what);
}

// Compares `other` against `live`; returns how many are not bitwise equal.
size_t CheckWithin(const std::vector<iim::Result<double>>& live,
                   const std::vector<iim::Result<double>>& other,
                   const std::string& what, Report* report) {
  size_t nonbitwise = 0;
  size_t outside = 0;
  double max_rel = 0.0;
  for (size_t i = 0; i < live.size(); ++i) {
    if (!live[i].ok() || !other[i].ok()) {
      ++outside;
      continue;
    }
    double a = live[i].value();
    double b = other[i].value();
    if (!BitwiseEqual(a, b)) ++nonbitwise;
    if (!WithinRelative(a, b, kTolerance)) ++outside;
    max_rel = std::max(max_rel,
                       std::fabs(a - b) / std::max({1.0, std::fabs(a),
                                                    std::fabs(b)}));
  }
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                " within 1e-7 relative (%zu probes, %zu not bitwise, "
                "%zu outside, max rel %.3g)",
                live.size(), nonbitwise, outside, max_rel);
  report->Check(outside == 0, what + detail);
  return nonbitwise;
}

// Open-loop latencies (ms) of one op kind.
std::vector<double> LatenciesOf(const StreamWorkload& w, const ServiceRun& run,
                                bool ingest) {
  std::vector<double> out;
  for (size_t i = 0; i < w.open_ops; ++i) {
    if (w.ingest[i] == ingest) out.push_back(run.latency_ms[i]);
  }
  return out;
}

double Rmse(const std::vector<double>& values,
            const std::vector<double>& truth) {
  double acc = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    double d = values[i] - truth[i];
    acc += d * d;
  }
  return values.empty() ? 0.0 : std::sqrt(acc / values.size());
}

// Bytes of write-ahead log per op still covered by the log segments on
// disk (segments are named wal-<first op>.log).
double WalBytesPerOp(const std::string& dir, uint64_t durable_ops) {
  uintmax_t bytes = 0;
  uint64_t first = durable_ops;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 || entry.path().extension() != ".log") {
      continue;
    }
    bytes += entry.file_size();
    first = std::min<uint64_t>(first, std::stoull(name.substr(4)));
  }
  uint64_t ops = durable_ops - first;
  return ops == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(ops);
}

}  // namespace

bool IsStreamWorkload(const std::string& name) {
  for (const StreamShape& s : kShapes) {
    if (name == s.name) return true;
  }
  return false;
}

void RunStream(const RunConfig& cfg, Tracer* tracer, Report* report) {
  const StreamShape* shape = nullptr;
  for (const StreamShape& s : kShapes) {
    if (cfg.workload == s.name) shape = &s;
  }
  StreamWorkload w;
  if (shape == nullptr || !MakeWorkload(cfg, *shape, &w)) {
    report->Check(false, "workload inputs generated");
    return;
  }
  const size_t n = w.n();
  report->Context("offered_rate_ops_s", shape->offered_rate);
  report->Context("open_loop_ops", static_cast<double>(w.open_ops));
  report->Context("flood_ops", static_cast<double>(n - w.open_ops));
  report->Context("flood_in_flight", static_cast<double>(kFloodInFlight));
  report->Context("window", static_cast<double>(w.window));

  const std::string dir_a = cfg.work_dir + "/engine-a";
  const std::string dir_b = cfg.work_dir + "/engine-b";
  const std::string dir_c = cfg.work_dir + "/engine-c";
  std::vector<double> setup_s;

  // --- Engine A behind the service ---------------------------------------
  iim::core::IimOptions opt_a = EngineOptions(cfg, w, dir_a);
  std::unique_ptr<OnlineIim> a = SetUp(w, opt_a, &setup_s);
  if (a == nullptr) {
    report->Check(false, "engine A set up");
    return;
  }
  ServiceRun svc = DriveService(a.get(), w);
  const std::vector<double> ingest_lat = LatenciesOf(w, svc, true);
  const std::vector<double> impute_lat = LatenciesOf(w, svc, false);
  if (cfg.perturb) {
    for (size_t i = 0; i < n; ++i) {
      if (!w.ingest[i] && svc.out[i].status.ok()) {
        uint64_t bits = 0;
        std::memcpy(&bits, &svc.out[i].value, sizeof(bits));
        bits ^= 1;
        std::memcpy(&svc.out[i].value, &bits, sizeof(bits));
        std::printf("perturbed the service answer of op %zu\n", i);
        break;
      }
    }
  }
  report->CountOps(n, FailedOps(svc.out));
  CheckOpsOk(svc.out, "service", report);
  const Counters sv = FromService(svc.stats);
  report->Check(sv.at("service.queue_shed") == 0 &&
                    sv.at("service.deadline_expired") == 0 &&
                    sv.at("service.fallback_imputes") == 0,
                "no op shed, expired or answered by the fallback");

  Digest digest;
  std::vector<double> imputed;
  std::vector<double> truth;
  std::vector<double> mean_imputed;
  iim::baselines::MeanImputer mean;
  std::vector<size_t> window_rows(w.window);
  for (size_t r = 0; r < w.window; ++r) window_rows[r] = r;
  iim::data::Table initial = w.data.TakeRows(window_rows);
  iim::Status mean_fit = mean.Fit(initial, w.target, w.features);
  report->Check(mean_fit.ok(), "column-mean reference fitted");
  std::vector<size_t> impute_ops;
  for (size_t i = 0; i < n; ++i) {
    digest.Add(static_cast<uint64_t>(svc.out[i].status.code()));
    if (w.ingest[i]) continue;
    impute_ops.push_back(i);
    digest.AddDouble(svc.out[i].value);
    if (!svc.out[i].status.ok()) continue;
    imputed.push_back(svc.out[i].value);
    truth.push_back(w.truth[i]);
    if (mean_fit.ok()) mean_imputed.push_back(
        mean.ImputeOne(View(w.rows[i])).value_or(0.0));
  }
  std::printf("digest %s\n", digest.Hex().c_str());
  double rmse = Rmse(imputed, truth);
  double mean_rmse = Rmse(mean_imputed, truth);
  char what[128];
  std::snprintf(what, sizeof(what),
                "impute_rmse %.6g below the column-mean imputer's %.6g",
                rmse, mean_rmse);
  report->Check(!imputed.empty() && rmse < mean_rmse, what);

  // Online vs a batch refit on the final window.
  std::vector<iim::data::RowView> probes;
  size_t first_probe =
      impute_ops.size() > kCheckProbes ? impute_ops.size() - kCheckProbes : 0;
  for (size_t p = first_probe; p < impute_ops.size(); ++p) {
    probes.push_back(View(w.rows[impute_ops[p]]));
  }
  std::vector<iim::Result<double>> live = a->ImputeBatch(probes);
  iim::data::Table final_window = a->table();
  iim::core::IimImputer refit(a->options());
  iim::Status fit = refit.Fit(final_window, w.target, w.features);
  report->Check(fit.ok(), "batch refit on table() fitted");
  if (fit.ok()) {
    size_t nonbitwise = CheckWithin(live, refit.ImputeBatch(probes),
                                    "online vs batch refit on table()", report);
    report->Layer("check.refit_nonbitwise", static_cast<double>(nonbitwise),
                  "count");
  }

  // Recovery: bring an engine back from A's persisted state and compare
  // its answers with A's. Durable: reopen A from disk; otherwise restore a
  // fresh engine from A's snapshot image. The first durable reopen is a
  // crash recovery: it replays the write-ahead log since the last
  // background snapshot, and how far back that snapshot lies depends on
  // disk timing, so it is not timed (timing it made recovery_s bimodal).
  // It saves a covering snapshot, which every timed reopen starts from.
  const size_t live_size = a->size();
  const uint64_t live_ops = a->durable_ops();
  const std::string image =
      shape->durable ? std::string() : a->SerializeSnapshot();
  a.reset();
  std::vector<double> recovery_s;
  size_t recoveries = 0;
  // One recovery, checked against A; the first gives the persist.*
  // recovery counts. Returns nullptr on failure.
  auto recover_once = [&](bool timed) -> std::unique_ptr<OnlineIim> {
    iim::Stopwatch sw;
    size_t s = tracer->Begin(shape->durable ? "engine.create_from_disk"
                                            : "engine.restore_snapshot",
                             Tracer::kNoOp);
    auto reopened =
        OnlineIim::Create(w.data.schema(), w.target, w.features, opt_a);
    iim::Status st = reopened.status();
    std::unique_ptr<OnlineIim> rec;
    if (st.ok()) {
      rec = std::move(reopened).value();
      if (!shape->durable) st = rec->RestoreFromSnapshot(image);
    }
    tracer->End(s);
    if (timed) recovery_s.push_back(sw.ElapsedSeconds());
    if (!st.ok()) {
      report->Check(false, "engine recovered: " + st.ToString());
      return nullptr;
    }
    report->Check(rec->size() == live_size && rec->durable_ops() == live_ops,
                  "recovered engine holds the live window and op count");
    size_t nonbitwise = CheckWithin(live, rec->ImputeBatch(probes),
                                    "recovered vs live", report);
    if (recoveries++ == 0) {
      report->Layer("persist.recovery_nonbitwise",
                    static_cast<double>(nonbitwise), "count");
      report->Layer("persist.replayed_records",
                    FromEngine(rec->stats()).at("persist.replayed_records"),
                    "count");
    }
    return rec;
  };
  bool recovered = true;
  if (shape->durable) {
    std::unique_ptr<OnlineIim> rec = recover_once(false);
    recovered = rec != nullptr && rec->SaveSnapshot().ok();
    report->Check(recovered,
                  "crash-recovered engine saved a covering snapshot");
  }
  // Timed recoveries run in rounds at three points of the run, so their
  // median does not hang on one stretch of the host's speed.
  auto recover = [&] {
    for (int r = 0; r < kRecoveryRounds && recovered; ++r) {
      recovered = recover_once(true) != nullptr;
    }
  };
  recover();

  // --- Engine B: untraced replay, the single-threaded baseline -----------
  ReplayRun off;
  {
    std::unique_ptr<OnlineIim> b =
        SetUp(w, EngineOptions(cfg, w, dir_b), &setup_s);
    if (b == nullptr) {
      report->Check(false, "engine B set up");
      return;
    }
    Tracer untraced(false);
    off = Replay(b.get(), w, &untraced);
  }
  CheckOpsOk(off.out, "replay", report);
  CheckBitwise(svc.out, off.out, "direct-drive replay", report);
  recover();

  // Extra set-ups that serve nothing, for a steadier setup_s median.
  while (setup_s.size() + 1 < kSetups) {
    if (SetUp(w, EngineOptions(cfg, w, dir_c), &setup_s) == nullptr) {
      report->Check(false, "extra engine set up");
      return;
    }
  }

  recover();
  report->EndToEnd("recovery_s", Median(recovery_s), "s");

  // --- Engine C: traced replay ---------------------------------------------
  {
    std::unique_ptr<OnlineIim> c =
        SetUp(w, EngineOptions(cfg, w, dir_c), &setup_s);
    if (c == nullptr) {
      report->Check(false, "engine C set up");
      return;
    }
    if (tracer->enabled()) {
      Counters eng0 = FromEngine(c->stats());
      Counters idx0 = FromIndex(c->index().stats());
      ReplayRun on = Replay(c.get(), w, tracer);
      CheckBitwise(svc.out, on.out, "traced replay", report);
      report->Check(on.index_neighbors ==
                        on.index_queries * std::min(c->options().k, c->size()),
                    "every traced index query returned k neighbors");
      std::string bytes;
      for (int r = 0; r < 3; ++r) {
        size_t s = tracer->Begin("engine.serialize_snapshot", Tracer::kNoOp);
        bytes = c->SerializeSnapshot();
        tracer->End(s);
      }
      report->Layer("persist.snapshot_bytes",
                    static_cast<double>(bytes.size()), "bytes");
      report->Check(c->FlushPersistence().ok(), "traced engine flushed");
      // No write-ahead log without a persist_dir.
      report->Layer("persist.wal_bytes_per_op",
                    shape->durable ? WalBytesPerOp(dir_c, c->durable_ops())
                                   : 0.0,
                    "bytes");
      Counters eng1 = FromEngine(c->stats());
      Counters idx1 = FromIndex(c->index().stats());
      auto d = [&](const char* name) { return Delta(eng1, eng0, name); };
      auto ratio = [](double num, double den) {
        return den == 0.0 ? 0.0 : num / den;
      };
      const int64_t open = static_cast<int64_t>(w.open_ops);
      std::vector<double> ing = tracer->DurationsMs("engine.ingest", 0, open);
      std::vector<double> imp =
          tracer->DurationsMs("engine.impute_batch", 0, open);
      std::vector<double> q = tracer->DurationsMs("index.query", 0, open);
      double eng_ing_p50 = iim::Percentile(ing, 50.0);
      double eng_imp_p50 = iim::Percentile(imp, 50.0);
      report->Layer("engine.ingest_p50_ms", eng_ing_p50, "ms");
      report->Layer("engine.ingest_p99_ms", iim::Percentile(ing, 99.0), "ms");
      report->Layer("engine.ingest_max_ms", iim::Percentile(ing, 100.0), "ms");
      report->Layer("engine.impute_batch_p50_ms", eng_imp_p50, "ms");
      report->Layer("engine.impute_batch_p99_ms", iim::Percentile(imp, 99.0),
                    "ms");
      report->Layer("index.query_p50_us", iim::Percentile(q, 50.0) * 1e3,
                    "us");
      report->Layer("service.ingest_overhead_p50_ms",
                    iim::Percentile(ingest_lat, 50.0) - eng_ing_p50, "ms");
      report->Layer("service.impute_overhead_p50_ms",
                    iim::Percentile(impute_lat, 50.0) - eng_imp_p50, "ms");

      report->Layer("order_core.orders_scanned_per_ingest",
                    ratio(d("order_core.orders_scanned"), d("engine.ingested")),
                    "count");
      report->Layer("order_core.orders_admitted_per_ingest",
                    ratio(d("order_core.orders_admitted"), d("engine.ingested")),
                    "count");
      report->Layer("order_core.backfills_per_evict",
                    ratio(d("order_core.backfills"), d("engine.evicted")),
                    "count");
      report->Layer("order_core.downdates", d("order_core.downdates"), "count");
      report->Layer("order_core.downdate_fallbacks",
                    d("order_core.downdate_fallbacks"), "count");
      report->Layer("order_core.models_solved_per_impute",
                    ratio(d("order_core.models_solved"), d("engine.imputed")),
                    "count");
      report->Layer("order_core.fit_reuse_ratio",
                    ratio(d("order_core.global_fits_reused"),
                          d("order_core.global_fits_reused") +
                              d("order_core.models_solved")),
                    "ratio");

      report->Layer("index.rebuilds", Delta(idx1, idx0, "index.rebuilds"),
                    "count");
      report->Layer("index.discarded", Delta(idx1, idx0, "index.discarded"),
                    "count");
      report->Layer("index.compactions",
                    Delta(idx1, idx0, "index.compactions"), "count");
      report->Layer("index.tail_max", on.tail_max, "count");
      report->Layer("index.append_hold_max_ms",
                    idx1.at("index.append_hold_max_ms"), "ms");
      report->Layer("index.compact_hold_max_ms",
                    idx1.at("index.compact_hold_max_ms"), "ms");

      // Background snapshots since Create, window load included; none
      // without a persist_dir, and no probes without moo_sample_rate.
      report->Layer("persist.snapshots_written",
                    eng1.at("persist.snapshots_written"), "count");
      report->Layer("persist.serialize_max_ms",
                    eng1.at("persist.serialize_max_ms"), "ms");
      report->Check(eng1.at("persist.snapshot_write_failures") == 0,
                    "no snapshot write failed");
      report->Layer("quality.probes", d("quality.probes"), "count");
      report->Layer("quality.probe_ingest_p50_ms",
                    iim::Percentile(on.probe_ingest_ms, 50.0), "ms");
      report->Layer("trace.replay_off_s", off.seconds, "s");
      report->Layer("trace.replay_on_s", on.seconds, "s");
      report->Layer("trace.overhead_pct",
                    (on.seconds - off.seconds) / off.seconds * 100.0, "%");
    }
  }
  report->Layer("baseline.replay_ops_s", static_cast<double>(n) / off.seconds,
                "1/s");

  // --- Service-side layer numbers -------------------------------------------
  report->Layer("service.serve_ingest_p99_ms",
                sv.at("service.serve_ingest_p99_ms"), "ms");
  report->Layer("service.serve_impute_p99_ms",
                sv.at("service.serve_impute_p99_ms"), "ms");
  report->Layer("service.impute_batch_mean",
                sv.at("service.batches") == 0
                    ? 0.0
                    : sv.at("service.imputations") / sv.at("service.batches"),
                "count");
  report->Layer("service.backlog_max", static_cast<double>(svc.backlog_max),
                "count");
  report->Layer("gen.lag_p99_ms", iim::Percentile(svc.lag_ms, 99.0), "ms");

  // --- End-to-end -----------------------------------------------------------
  report->Context("ingest_samples", static_cast<double>(ingest_lat.size()));
  report->Context("impute_samples", static_cast<double>(impute_lat.size()));
  std::string samples;
  for (double t : setup_s) {
    samples += (samples.empty() ? "" : ",") + std::to_string(t);
  }
  report->Context("setup_s_samples", samples);
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("ingest_p50_ms", iim::Percentile(ingest_lat, 50.0), "ms");
  report->EndToEnd("impute_p50_ms", iim::Percentile(impute_lat, 50.0), "ms");
  // The tails and the flood throughput are end-to-end figures, but their
  // run-to-run spread on a 4-vCPU VM (IQR/median 0.13 to 9 over five
  // seeds) exceeds any bound a gate may use, so they carry none.
  report->Layer("ingest_p99_ms", iim::Percentile(ingest_lat, 99.0), "ms");
  report->Layer("impute_p99_ms", iim::Percentile(impute_lat, 99.0), "ms");
  report->Layer("throughput_ops_s",
                static_cast<double>(n - w.open_ops) / svc.flood_seconds,
                "1/s");
  report->EndToEnd("impute_rmse", rmse, "abs");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
  fs::remove_all(dir_c);
}

}  // namespace perfbench
