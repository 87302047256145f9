// Durability and crash recovery (src/stream/persist + the engine wiring).
//
// The recovery contract under test: an engine recovered from its persist
// directory — newest valid snapshot plus write-ahead log tail replayed
// through the normal Ingest/Evict path — is indistinguishable from an
// engine that never crashed and applied exactly the acknowledged op
// prefix. Because engine state is a deterministic function of the op
// sequence (the contract the differential suites pin), "indistinguishable"
// here means BITWISE: window rows, learning orders and imputed values.
//
// The harness attacks every layer: WAL truncation at every byte boundary,
// snapshot byte flips, randomized kill points mid-schedule, disk-full /
// short-write fault injection through the Writer factory, stray .tmp
// files, and reopens refused because the directory holds another
// configuration's image. Nothing in here may crash, and no recovered
// engine may ever produce a wrong answer — partial loss of the un-acked
// tail is the only permitted outcome.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crc32_reference.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"
#include "stream/persist/io.h"
#include "stream/persist/snapshot.h"
#include "stream_test_util.h"

namespace iim::stream {
namespace {

constexpr int kTarget = 3;
const std::vector<int>& Features() {
  static const std::vector<int> f = {0, 1, 2};
  return f;
}

class ScopedTempDir {
 public:
  ScopedTempDir() {
    char tmpl[] = "/tmp/iim_recovery_XXXXXX";
    char* got = mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path_ = got == nullptr ? std::string() : got;
  }
  ~ScopedTempDir() {
    Wipe();
    if (!path_.empty()) rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }
  void Wipe() {
    if (path_.empty()) return;
    Result<std::vector<std::string>> entries = persist::ListDir(path_);
    if (!entries.ok()) return;
    for (const std::string& e : entries.value()) {
      Status st = persist::RemoveFile(path_ + "/" + e);
      (void)st;
    }
  }

 private:
  std::string path_;
};

core::IimOptions RecoveryOptions() {
  core::IimOptions opt;
  opt.k = 3;
  opt.ell = 5;
  opt.threads = 1;
  opt.downdate = false;  // restream path: the bitwise contract
  opt.window_size = 40;
  // Low thresholds so small schedules still cross KD-tree rebuilds and
  // physical compactions (results are invariant to both).
  opt.index_kdtree_threshold = 32;
  opt.index_min_rebuild_tail = 8;
  opt.index_min_compact_tombstones = 4;
  return opt;
}

std::unique_ptr<OnlineIim> MakeEngine(const data::Table& src,
                                      const core::IimOptions& opt) {
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(src.schema(), kTarget, Features(), opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

Status ApplyOp(OnlineIim* e, const data::Table& src, const ScheduleOp& op) {
  return op.kind == ScheduleOp::kIngest ? e->Ingest(src.Row(op.src_row))
                                        : e->Evict(op.arrival);
}

// Applies schedule mutations in order until `limit` of them SUCCEEDED
// (failed ops — e.g. evicting a tuple the window already retired — log
// nothing and change nothing, so the durable op count only counts
// successes). Returns the number applied.
size_t DriveLogged(OnlineIim* e, const data::Table& src,
                   const std::vector<ScheduleOp>& ops, size_t limit) {
  size_t logged = 0;
  for (const ScheduleOp& op : ops) {
    if (op.kind == ScheduleOp::kImpute) continue;
    if (logged >= limit) break;
    if (ApplyOp(e, src, op).ok()) ++logged;
  }
  return logged;
}

// Asserts `got` and `want` hold bitwise-identical engine state: live
// count, window rows, per-tuple learning orders, postings invariant, and
// the imputations `probes` produce.
void ExpectEngineStateEq(OnlineIim* got, OnlineIim* want,
                         const std::vector<std::vector<double>>& probes,
                         const std::string& where) {
  ASSERT_EQ(got->size(), want->size()) << where;
  const data::Table& tg = got->table();
  const data::Table& tw = want->table();
  ASSERT_EQ(tg.NumRows(), tw.NumRows()) << where;
  for (size_t i = 0; i < tw.NumRows(); ++i) {
    for (size_t j = 0; j < tw.NumCols(); ++j) {
      ASSERT_EQ(tg.At(i, j), tw.At(i, j)) << where << " row " << i;
    }
  }
  for (uint64_t a = 0; a < want->stats().ingested; ++a) {
    ASSERT_EQ(got->IsLive(a), want->IsLive(a)) << where << " arrival " << a;
    if (!want->IsLive(a)) continue;
    std::vector<neighbors::Neighbor> og = got->LearningOrderByArrival(a);
    std::vector<neighbors::Neighbor> ow = want->LearningOrderByArrival(a);
    ASSERT_EQ(og.size(), ow.size()) << where << " arrival " << a;
    for (size_t j = 0; j < ow.size(); ++j) {
      ASSERT_EQ(og[j].index, ow[j].index) << where << " arrival " << a;
      ASSERT_EQ(og[j].distance, ow[j].distance) << where << " arrival " << a;
    }
  }
  EXPECT_TRUE(got->VerifyPostings()) << where;
  for (size_t p = 0; p < probes.size(); ++p) {
    data::RowView view(probes[p].data(), probes[p].size());
    Result<double> rg = got->ImputeOne(view);
    Result<double> rw = want->ImputeOne(view);
    ASSERT_EQ(rg.ok(), rw.ok()) << where << " probe " << p;
    if (rw.ok()) {
      ASSERT_EQ(rg.value(), rw.value()) << where << " probe " << p;
    }
  }
}

std::vector<std::vector<double>> MakeProbes(const data::Table& src,
                                            size_t count) {
  std::vector<std::vector<double>> probes;
  for (size_t i = 0; i < count; ++i) {
    probes.push_back(Probe(src, (i * 13) % src.NumRows(), kTarget));
  }
  return probes;
}

// ---------------------------------------------------------------------------
// Snapshot round-trip

class SnapshotRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(SnapshotRoundTrip, RestoredEngineIsBitwiseIdentical) {
  const bool downdate = GetParam();
  data::Table src = HeterogeneousTable(170, 4, 11);
  core::IimOptions opt = RecoveryOptions();
  opt.downdate = downdate;
  std::vector<ScheduleOp> ops = MakeSchedule(3, 130, 12, 0.25, 0);
  std::vector<std::vector<double>> probes = MakeProbes(src, 4);

  std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
  DriveLogged(a.get(), src, ops, ops.size());

  std::string bytes = a->SerializeSnapshot();
  std::unique_ptr<OnlineIim> b = MakeEngine(src, opt);
  ASSERT_TRUE(b->RestoreFromSnapshot(bytes).ok());
  EXPECT_EQ(b->stats().snapshots_loaded, 1u);
  ExpectEngineStateEq(b.get(), a.get(), probes, "post-restore");

  // Bitwise-identical state + identical subsequent ops must stay bitwise
  // identical — including across further compactions and window evicts.
  for (size_t i = 130; i < src.NumRows(); ++i) {
    Status sa = a->Ingest(src.Row(i));
    Status sb = b->Ingest(src.Row(i));
    ASSERT_EQ(sa.ok(), sb.ok());
  }
  ExpectEngineStateEq(b.get(), a.get(), probes, "post-restore-continue");
}

INSTANTIATE_TEST_SUITE_P(DowndateOnOff, SnapshotRoundTrip,
                         ::testing::Values(false, true));

TEST(SnapshotRoundTripTest, RestoreValidatesTargetEngine) {
  data::Table src = HeterogeneousTable(60, 4, 5);
  core::IimOptions opt = RecoveryOptions();
  std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
  for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  std::string bytes = a->SerializeSnapshot();

  // Mismatched result-shaping options are rejected.
  core::IimOptions other = opt;
  other.k = opt.k + 1;
  std::unique_ptr<OnlineIim> b = MakeEngine(src, other);
  Status st = b->RestoreFromSnapshot(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

  // A non-empty engine refuses to be overwritten.
  std::unique_ptr<OnlineIim> c = MakeEngine(src, opt);
  ASSERT_TRUE(c->Ingest(src.Row(0)).ok());
  st = c->RestoreFromSnapshot(bytes);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();

  // Garbage bytes are an error, never a crash.
  std::unique_ptr<OnlineIim> d = MakeEngine(src, opt);
  EXPECT_FALSE(d->RestoreFromSnapshot("not a snapshot").ok());
  EXPECT_FALSE(d->RestoreFromSnapshot(std::string()).ok());
  EXPECT_EQ(d->size(), 0u);
}

TEST(SnapshotRoundTripTest, EveryByteFlipIsRejected) {
  data::Table src = HeterogeneousTable(50, 4, 7);
  core::IimOptions opt = RecoveryOptions();
  std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
  for (size_t i = 0; i < 40; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  std::string bytes = a->SerializeSnapshot();
  ASSERT_TRUE(persist::SnapshotView::Parse(bytes).ok());

  // The whole-file CRC makes ANY single-byte corruption detectable.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(persist::SnapshotView::Parse(bad).ok()) << "byte " << i;
  }
  // Sampled full restores: the engine layer rejects too and stays empty.
  for (size_t i = 0; i < bytes.size(); i += 97) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    std::unique_ptr<OnlineIim> b = MakeEngine(src, opt);
    EXPECT_FALSE(b->RestoreFromSnapshot(bad).ok()) << "byte " << i;
    EXPECT_EQ(b->size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Wire format: the builder's bytes are exactly the layout snapshot.h
// documents, checksummed by the bytewise reference CRC — so images
// written before and after any codec change read back interchangeably.

TEST(SnapshotFormatTest, FinishMatchesDocumentedLayout) {
  std::vector<unsigned char> blob(5003);
  Rng rng(17);
  for (unsigned char& c : blob) {
    c = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  const uint64_t ops = 0x0102030405060708ull;
  const double doubles[3] = {-1.5, 0.1, 1e300};

  persist::SnapshotBuilder b(ops);
  b.BeginSection(7);
  b.PutU8(0xAB);
  b.PutU32(0xDEADBEEFu);
  b.PutU64(42);
  b.PutF64(2.25);
  b.PutDoubles(doubles, 3);
  b.BeginSection(9);  // empty section
  b.BeginSection(11);
  b.Reserve(blob.size());
  b.PutBytes(blob.data(), blob.size());
  const std::string got = b.Finish();

  auto put = [](std::string* out, const void* p, size_t n) {
    out->append(static_cast<const char*>(p), n);
  };
  std::string sec7;
  const uint8_t u8 = 0xAB;
  const uint32_t u32 = 0xDEADBEEFu;
  const uint64_t u64 = 42;
  const double f64 = 2.25;
  put(&sec7, &u8, 1);
  put(&sec7, &u32, 4);
  put(&sec7, &u64, 8);
  put(&sec7, &f64, 8);
  put(&sec7, doubles, sizeof(doubles));
  const std::string sec11(reinterpret_cast<const char*>(blob.data()),
                          blob.size());
  const std::vector<std::pair<uint32_t, std::string>> sections = {
      {7, sec7}, {9, std::string()}, {11, sec11}};

  // header: "IIMSNP01" | u32 version | u64 ops | u32 nsections | u32 crc
  std::string want = "IIMSNP01";
  const uint32_t version = 1;
  const uint32_t nsections = 3;
  put(&want, &version, 4);
  put(&want, &ops, 8);
  put(&want, &nsections, 4);
  const uint32_t header_crc = testing_util::ReferenceCrc32(want.data(), 24);
  put(&want, &header_crc, 4);
  // section: u32 tag | u64 len | payload | u32 crc(payload)
  for (const auto& [tag, payload] : sections) {
    const uint64_t len = payload.size();
    const uint32_t crc =
        testing_util::ReferenceCrc32(payload.data(), payload.size());
    put(&want, &tag, 4);
    put(&want, &len, 8);
    want += payload;
    put(&want, &crc, 4);
  }
  // footer: u32 crc(every byte before the footer) | "IIMSNPFT"
  const uint32_t file_crc =
      testing_util::ReferenceCrc32(want.data(), want.size());
  put(&want, &file_crc, 4);
  want += "IIMSNPFT";

  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);

  // And the reader takes the same layout apart again.
  Result<persist::SnapshotView> view = persist::SnapshotView::Parse(want);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().ops_covered(), ops);
  Result<persist::SectionReader> r7 = view.value().Section(7);
  ASSERT_TRUE(r7.ok());
  EXPECT_EQ(r7.value().U8(), u8);
  EXPECT_EQ(r7.value().U32(), u32);
  EXPECT_EQ(r7.value().U64(), u64);
  EXPECT_EQ(r7.value().F64(), f64);
  double back[3];
  r7.value().Doubles(back, 3);
  EXPECT_EQ(std::memcmp(back, doubles, sizeof(doubles)), 0);
  EXPECT_EQ(r7.value().remaining(), 0u);
  EXPECT_TRUE(r7.value().ok());
  Result<persist::SectionReader> r9 = view.value().Section(9);
  ASSERT_TRUE(r9.ok());
  EXPECT_EQ(r9.value().remaining(), 0u);
  Result<persist::SectionReader> r11 = view.value().Section(11);
  ASSERT_TRUE(r11.ok());
  std::vector<unsigned char> blob_back(blob.size());
  r11.value().Bytes(blob_back.data(), blob_back.size());
  EXPECT_TRUE(r11.value().ok());
  EXPECT_EQ(blob_back, blob);
}

// A durable reopen restores from the view the state store parsed at
// open; RestoreFromSnapshot parses the bytes itself. Both must install
// the same engine: same answers, same counters, bit for bit — before and
// after further ops.
TEST(SnapshotRoundTripTest, DurableReopenMatchesRestoreFromBytes) {
  data::Table src = HeterogeneousTable(170, 4, 29);
  core::IimOptions opt = RecoveryOptions();
  std::vector<ScheduleOp> ops = MakeSchedule(5, 130, 12, 0.25, 0);
  std::vector<std::vector<double>> probes = MakeProbes(src, 4);

  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.keep_snapshots = 1;
  uint64_t covered;
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    DriveLogged(a.get(), src, ops, ops.size());
    ASSERT_TRUE(a->SaveSnapshot().ok());  // covers every logged op
    covered = a->durable_ops();
  }
  Result<std::string> bytes = persist::ReadFileToString(
      dir.path() + "/snap-" + std::to_string(covered) + ".snap");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  std::unique_ptr<OnlineIim> from_bytes = MakeEngine(src, opt);
  ASSERT_TRUE(from_bytes->RestoreFromSnapshot(bytes.value()).ok());
  Result<std::unique_ptr<OnlineIim>> reopened =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  OnlineIim* rec = reopened.value().get();
  EXPECT_EQ(rec->stats().snapshots_loaded, 1u);
  EXPECT_EQ(rec->stats().log_records_replayed, 0u);
  EXPECT_EQ(rec->durable_ops(), covered);

  auto expect_same_counters = [](const OnlineIim::Stats& x,
                                 const OnlineIim::Stats& y,
                                 const std::string& where) {
    EXPECT_EQ(x.ingested, y.ingested) << where;
    EXPECT_EQ(x.imputed, y.imputed) << where;
    EXPECT_EQ(x.evicted, y.evicted) << where;
    EXPECT_EQ(x.fast_path_appends, y.fast_path_appends) << where;
    EXPECT_EQ(x.models_invalidated, y.models_invalidated) << where;
    EXPECT_EQ(x.models_solved, y.models_solved) << where;
    EXPECT_EQ(x.downdates, y.downdates) << where;
    EXPECT_EQ(x.downdate_fallbacks, y.downdate_fallbacks) << where;
    EXPECT_EQ(x.backfills, y.backfills) << where;
    EXPECT_EQ(x.compactions, y.compactions) << where;
    EXPECT_EQ(x.postings_edges, y.postings_edges) << where;
    EXPECT_EQ(x.holders_invalidated, y.holders_invalidated) << where;
    EXPECT_EQ(x.global_fits_reused, y.global_fits_reused) << where;
    EXPECT_EQ(x.adaptive_l_changes, y.adaptive_l_changes) << where;
    EXPECT_EQ(x.orders_scanned, y.orders_scanned) << where;
    EXPECT_EQ(x.orders_admitted, y.orders_admitted) << where;
    EXPECT_EQ(x.admission_skips, y.admission_skips) << where;
    EXPECT_EQ(x.snapshots_loaded, y.snapshots_loaded) << where;
  };
  expect_same_counters(rec->stats(), from_bytes->stats(), "restored");
  ExpectEngineStateEq(rec, from_bytes.get(), probes, "restored");
  expect_same_counters(rec->stats(), from_bytes->stats(), "after probes");

  for (size_t i = 130; i < src.NumRows(); ++i) {
    Status sr = rec->Ingest(src.Row(i));
    Status sb = from_bytes->Ingest(src.Row(i));
    ASSERT_EQ(sr.ok(), sb.ok());
  }
  ExpectEngineStateEq(rec, from_bytes.get(), probes, "continued");
  expect_same_counters(rec->stats(), from_bytes->stats(), "continued");
}

// ---------------------------------------------------------------------------
// WAL truncation at every byte boundary

TEST(WalKillPointTest, TruncationAtEveryByteRecoversTheAckedPrefix) {
  data::Table src = HeterogeneousTable(40, 4, 23);
  core::IimOptions opt = RecoveryOptions();
  opt.window_size = 14;
  std::vector<ScheduleOp> ops = MakeSchedule(9, 26, 6, 0.3, 0);
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);

  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  size_t total;
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    total = DriveLogged(a.get(), src, ops, ops.size());
  }
  Result<std::string> wal =
      persist::ReadFileToString(dir.path() + "/wal-0.log");
  ASSERT_TRUE(wal.ok());

  // One never-crashed reference per possible recovered op count.
  std::vector<std::unique_ptr<OnlineIim>> refs;
  for (size_t c = 0; c <= total; ++c) {
    refs.push_back(MakeEngine(src, opt));
    ASSERT_EQ(DriveLogged(refs.back().get(), src, ops, c), c);
  }

  uint64_t prev_ops = 0;
  for (size_t len = 0; len <= wal.value().size(); ++len) {
    dir.Wipe();
    {
      Result<std::unique_ptr<persist::Writer>> w =
          persist::OpenPosixWriter(dir.path() + "/wal-0.log");
      ASSERT_TRUE(w.ok());
      ASSERT_TRUE(w.value()->Append(wal.value().data(), len).ok());
      ASSERT_TRUE(w.value()->Close().ok());
    }
    Result<std::unique_ptr<OnlineIim>> rec =
        OnlineIim::Create(src.schema(), kTarget, Features(), popt);
    ASSERT_TRUE(rec.ok()) << "len " << len << ": "
                          << rec.status().ToString();
    uint64_t c = rec.value()->durable_ops();
    ASSERT_LE(c, total) << "len " << len;
    // Longer surviving prefixes never recover fewer ops.
    ASSERT_GE(c, prev_ops) << "len " << len;
    prev_ops = c;
    ASSERT_EQ(rec.value()->stats().log_records_replayed, c) << "len " << len;
    ExpectEngineStateEq(rec.value().get(), refs[static_cast<size_t>(c)].get(),
                        probes, "len " + std::to_string(len));
  }
  EXPECT_EQ(prev_ops, total);  // the untruncated log replays everything
}

// ---------------------------------------------------------------------------
// Randomized kill points with snapshots in play

// Crashes an engine configured by `opt` at random points of three
// schedules, recovers it from disk alone each time, and compares it with
// a never-crashed twin. Monitored engines (moo_sample_rate > 0) must also
// agree on their probes: the replay re-probes the same arrivals through
// the same read-only impute path, so the IIM and kNN estimates match
// bitwise (the mean/GLR fits restream after a restore and may differ in
// the low bits).
void RunKillPoints(const core::IimOptions& opt) {
  data::Table src = HeterogeneousTable(200, 4, 31);
  std::vector<std::vector<double>> probes = MakeProbes(src, 3);

  for (uint64_t seed : {1u, 2u, 3u}) {
    std::vector<ScheduleOp> ops = MakeSchedule(seed, 170, 15, 0.25, 0);
    size_t nmut = 0;
    for (const ScheduleOp& op : ops) {
      nmut += op.kind != ScheduleOp::kImpute;
    }
    Rng rng(seed * 977 + 5);
    std::vector<size_t> kills;
    for (int i = 0; i < 3; ++i) {
      kills.push_back(static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(nmut) - 1)));
    }
    std::sort(kills.begin(), kills.end());

    ScopedTempDir dir;
    core::IimOptions popt = opt;
    popt.persist_dir = dir.path();
    popt.snapshot_every = 17;
    popt.wal_fsync_every = 1;  // everything acknowledged is durable
    popt.keep_snapshots = 2;

    std::unique_ptr<OnlineIim> crashy = MakeEngine(src, popt);
    std::unique_ptr<OnlineIim> steady = MakeEngine(src, opt);
    size_t applied = 0;
    size_t next_kill = 0;
    for (const ScheduleOp& op : ops) {
      if (op.kind == ScheduleOp::kImpute) continue;
      if (next_kill < kills.size() && applied >= kills[next_kill]) {
        ++next_kill;
        crashy.reset();  // "crash" — recover from disk alone
        Result<std::unique_ptr<OnlineIim>> rec =
            OnlineIim::Create(src.schema(), kTarget, Features(), popt);
        ASSERT_TRUE(rec.ok()) << rec.status().ToString();
        crashy = std::move(rec).value();
        ASSERT_EQ(crashy->durable_ops(), applied);
        const std::string where =
            "seed " + std::to_string(seed) + " kill at " +
            std::to_string(applied);
        const OnlineIim::Stats rs = crashy->stats();
        if (applied >= popt.snapshot_every) {
          EXPECT_EQ(rs.snapshots_loaded, 1u) << where;
          EXPECT_LT(rs.log_records_replayed, applied);
        }
        if (opt.moo_sample_rate > 0.0) {
          const OnlineIim::Stats ss = steady->stats();
          EXPECT_EQ(rs.moo_probes, ss.moo_probes) << where;
          EXPECT_EQ(rs.moo_skipped, ss.moo_skipped) << where;
          ASSERT_EQ(rs.quality.size(), 1u) << where;
          ASSERT_EQ(ss.quality.size(), 1u) << where;
          for (int m : {kQualityIim, kQualityKnn}) {
            EXPECT_EQ(rs.quality[0].samples[m], ss.quality[0].samples[m])
                << where << " " << QualityMethodName(m);
            EXPECT_EQ(rs.quality[0].ewma_abs[m], ss.quality[0].ewma_abs[m])
                << where << " " << QualityMethodName(m);
          }
        }
        ExpectEngineStateEq(crashy.get(), steady.get(), probes, where);
      }
      Status sc = ApplyOp(crashy.get(), src, op);
      Status ss = ApplyOp(steady.get(), src, op);
      ASSERT_EQ(sc.ok(), ss.ok()) << "applied " << applied;
      if (ss.ok()) ++applied;
    }
    ExpectEngineStateEq(crashy.get(), steady.get(), probes,
                        "seed " + std::to_string(seed) + " final");
    ASSERT_TRUE(crashy->FlushPersistence().ok());
  }
}

class KillPointRecovery : public ::testing::TestWithParam<bool> {};

TEST_P(KillPointRecovery, RecoveredEngineMatchesNeverCrashed) {
  core::IimOptions opt = RecoveryOptions();
  opt.downdate = GetParam();
  RunKillPoints(opt);
}

// The same kill points with quality monitoring on: probes run inside
// Ingest, so the log replay re-probes exactly the arrivals the crashed
// engine probed, and no probe may leave a trace that changes what the
// recovered engine serves.
TEST_P(KillPointRecovery, MonitoredEngineMatchesNeverCrashed) {
  core::IimOptions opt = RecoveryOptions();
  opt.downdate = GetParam();
  opt.moo_sample_rate = 0.3;
  RunKillPoints(opt);
}

INSTANTIATE_TEST_SUITE_P(DowndateOnOff, KillPointRecovery,
                         ::testing::Values(false, true));

// ---------------------------------------------------------------------------
// Snapshot corruption: fall back to the older snapshot, then to cold

TEST(SnapshotCorruptionTest, FallsBackToOlderSnapshotThenCold) {
  data::Table src = HeterogeneousTable(140, 4, 3);
  core::IimOptions opt = RecoveryOptions();
  std::vector<ScheduleOp> ops = MakeSchedule(7, 110, 12, 0.2, 0);
  std::vector<std::vector<double>> probes = MakeProbes(src, 3);

  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.snapshot_every = 13;
  popt.wal_fsync_every = 1;
  popt.keep_snapshots = 2;

  size_t total;
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    total = DriveLogged(a.get(), src, ops, ops.size());
    ASSERT_TRUE(a->SaveSnapshot().ok());  // guarantee a newest snapshot
  }
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  ASSERT_EQ(DriveLogged(ref.get(), src, ops, total), total);

  Result<std::vector<std::string>> entries = persist::ListDir(dir.path());
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> snaps;
  for (const std::string& e : entries.value()) {
    if (e.size() > 5 && e.compare(e.size() - 5, 5, ".snap") == 0) {
      snaps.push_back(e);
    }
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const std::string& x, const std::string& y) {
              return std::stoull(x.substr(5)) < std::stoull(y.substr(5));
            });
  ASSERT_GE(snaps.size(), 2u);

  // Corrupt the newest snapshot: recovery must fall back to the older one
  // and replay a longer log tail — same final state, bit for bit.
  std::string newest = dir.path() + "/" + snaps.back();
  Result<std::string> img = persist::ReadFileToString(newest);
  ASSERT_TRUE(img.ok());
  {
    std::string bad = img.value();
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x10);
    Result<std::unique_ptr<persist::Writer>> w =
        persist::OpenPosixWriter(newest);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Append(bad.data(), bad.size()).ok());
    ASSERT_TRUE(w.value()->Close().ok());
  }
  {
    Result<std::unique_ptr<OnlineIim>> rec =
        OnlineIim::Create(src.schema(), kTarget, Features(), popt);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec.value()->durable_ops(), total);
    EXPECT_EQ(rec.value()->stats().snapshots_loaded, 1u);
    EXPECT_GT(rec.value()->stats().log_records_replayed, 0u);
    ExpectEngineStateEq(rec.value().get(), ref.get(), probes,
                        "older-snapshot fallback");
    // The corrupted snapshot was a dead timeline: recovery deleted it.
    Result<std::string> gone = persist::ReadFileToString(newest);
    EXPECT_FALSE(gone.ok());
  }

  // Scorched earth: every remaining snapshot corrupted. Recovery must
  // still construct a working engine (cold + whatever log coverage
  // remains) — graceful degradation, never a crash or an error.
  entries = persist::ListDir(dir.path());
  ASSERT_TRUE(entries.ok());
  for (const std::string& e : entries.value()) {
    if (e.size() > 5 && e.compare(e.size() - 5, 5, ".snap") == 0) {
      std::string path = dir.path() + "/" + e;
      Result<std::string> bytes = persist::ReadFileToString(path);
      ASSERT_TRUE(bytes.ok());
      std::string bad = bytes.value();
      bad[bad.size() / 3] = static_cast<char>(bad[bad.size() / 3] ^ 0x08);
      Result<std::unique_ptr<persist::Writer>> w =
          persist::OpenPosixWriter(path);
      ASSERT_TRUE(w.ok());
      ASSERT_TRUE(w.value()->Append(bad.data(), bad.size()).ok());
      ASSERT_TRUE(w.value()->Close().ok());
    }
  }
  Result<std::unique_ptr<OnlineIim>> cold =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold.value()->Ingest(src.Row(0)).ok());  // fully functional
}

TEST(SnapshotCorruptionTest, StrayTmpFilesAreIgnoredAndCleaned) {
  data::Table src = HeterogeneousTable(60, 4, 13);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  }
  for (const char* name : {"snap-999.snap.tmp", "junk.tmp"}) {
    Result<std::unique_ptr<persist::Writer>> w =
        persist::OpenPosixWriter(dir.path() + "/" + name);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Append("garbage", 7).ok());
    ASSERT_TRUE(w.value()->Close().ok());
  }
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(ref->Ingest(src.Row(i)).ok());

  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectEngineStateEq(rec.value().get(), ref.get(), probes, "tmp-ignored");
  Result<std::vector<std::string>> entries = persist::ListDir(dir.path());
  ASSERT_TRUE(entries.ok());
  for (const std::string& e : entries.value()) {
    EXPECT_EQ(e.find(".tmp"), std::string::npos) << e;
  }
}

// ---------------------------------------------------------------------------
// Disk-full / short-write fault injection

// Budgeted fault writer: the first `budget->remaining` bytes across all
// appends land; the append that crosses the line lands only half its
// bytes (a short write) and fails. Syncs/truncates/closes pass through.
struct FaultBudget {
  long remaining = 1L << 40;
};

class FaultWriter : public persist::Writer {
 public:
  FaultWriter(std::unique_ptr<persist::Writer> base,
              std::shared_ptr<FaultBudget> budget)
      : base_(std::move(base)), budget_(std::move(budget)) {}

  Status Append(const void* data, size_t len) override {
    if (budget_->remaining < static_cast<long>(len)) {
      long avail = budget_->remaining > 0 ? budget_->remaining : 0;
      size_t landed = std::min(len / 2, static_cast<size_t>(avail));
      if (landed > 0) {
        Status st = base_->Append(data, landed);
        (void)st;
      }
      budget_->remaining = 0;
      return Status::IoError("injected disk full");
    }
    budget_->remaining -= static_cast<long>(len);
    return base_->Append(data, len);
  }
  Status Sync() override { return base_->Sync(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Close() override { return base_->Close(); }
  uint64_t size() const override { return base_->size(); }

 private:
  std::unique_ptr<persist::Writer> base_;
  std::shared_ptr<FaultBudget> budget_;
};

class ScopedFaultFactory {
 public:
  explicit ScopedFaultFactory(std::shared_ptr<FaultBudget> budget) {
    persist::SetWriterFactory(
        [budget](const std::string& path)
            -> Result<std::unique_ptr<persist::Writer>> {
          Result<std::unique_ptr<persist::Writer>> base =
              persist::OpenPosixWriter(path);
          if (!base.ok()) return base.status();
          return std::unique_ptr<persist::Writer>(
              new FaultWriter(std::move(base).value(), budget));
        });
  }
  ~ScopedFaultFactory() { persist::SetWriterFactory(nullptr); }
};

TEST(FaultInjectionTest, FailedWalAppendRejectsTheOpUnapplied) {
  data::Table src = HeterogeneousTable(60, 4, 17);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;

  auto budget = std::make_shared<FaultBudget>();
  ScopedFaultFactory factory(budget);
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    for (size_t i = 0; i < 20; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
    uint64_t acked = a->durable_ops();
    size_t live = a->size();

    budget->remaining = 10;  // room for part of a record: a short write
    Status st = a->Ingest(src.Row(20));
    EXPECT_FALSE(st.ok());
    // Log-then-apply: the rejected op left no trace in the engine.
    EXPECT_EQ(a->size(), live);
    EXPECT_EQ(a->durable_ops(), acked);
    EXPECT_EQ(a->stats().ingested, 20u);
    // The failed durable write stepped the sticky health ladder: further
    // mutations are refused — even though the disk would now accept them
    // — until durability is explicitly recovered (stream/health.h).
    EXPECT_EQ(a->Health(), HealthState::kDegraded);
    st = a->Evict(0);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_EQ(a->size(), live);

    budget->remaining = 1L << 40;  // space reclaimed
    EXPECT_EQ(a->Ingest(src.Row(20)).code(), StatusCode::kUnavailable);
    ASSERT_TRUE(a->RecoverDurability().ok());
    EXPECT_EQ(a->Health(), HealthState::kHealthy);
    EXPECT_TRUE(a->Ingest(src.Row(20)).ok());
    EXPECT_TRUE(a->Evict(0).ok());
    EXPECT_EQ(a->durable_ops(), acked + 2);
  }
  // The torn half-record was rolled back: recovery sees exactly the
  // acknowledged sequence.
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  for (size_t i = 0; i <= 20; ++i) ASSERT_TRUE(ref->Ingest(src.Row(i)).ok());
  ASSERT_TRUE(ref->Evict(0).ok());
  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->durable_ops(), 22u);
  ExpectEngineStateEq(rec.value().get(), ref.get(), probes, "post-fault");
}

TEST(FaultInjectionTest, FailedSnapshotWriteIsCountedNotFatal) {
  data::Table src = HeterogeneousTable(60, 4, 19);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;

  auto budget = std::make_shared<FaultBudget>();
  ScopedFaultFactory factory(budget);
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    for (size_t i = 0; i < 25; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());

    // Exhaust the disk right before the snapshot body lands: the WAL
    // rotation header fits, the snapshot file write fails.
    budget->remaining = 64;
    Status st = a->SaveSnapshot();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(a->stats().snapshot_write_failures, 1u);
    EXPECT_EQ(a->stats().snapshots_written, 0u);

    budget->remaining = 1L << 40;
    EXPECT_TRUE(a->Ingest(src.Row(25)).ok());  // the engine marches on
    ASSERT_TRUE(a->SaveSnapshot().ok());
    EXPECT_EQ(a->stats().snapshots_written, 1u);
  }
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  for (size_t i = 0; i < 26; ++i) ASSERT_TRUE(ref->Ingest(src.Row(i)).ok());
  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->stats().snapshots_loaded, 1u);
  ExpectEngineStateEq(rec.value().get(), ref.get(), probes,
                      "post-snapshot-fault");
}

// ---------------------------------------------------------------------------
// Refused reopen: the newest snapshot is not this engine's image

// A persist_dir whose newest intact snapshot was written under options
// that shape results differently (here k) fails Create with
// InvalidArgument — never a cold start that would silently shadow the
// stored timeline — and the refused open destroys nothing: reopening
// with the original options recovers the snapshot plus its log tail
// bitwise.
TEST(RefusedReopenTest, MismatchedOptionsFailCreateAndDestroyNothing) {
  data::Table src = HeterogeneousTable(120, 4, 31);
  core::IimOptions opt = RecoveryOptions();
  std::vector<ScheduleOp> ops = MakeSchedule(13, 90, 12, 0.25, 0);
  std::vector<std::vector<double>> probes = MakeProbes(src, 3);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;

  // One explicit snapshot at op 50, then a log tail behind it.
  const size_t kSnapshotAt = 50;
  std::unique_ptr<OnlineIim> reference = MakeEngine(src, opt);
  size_t applied = 0;
  {
    std::unique_ptr<OnlineIim> writer = MakeEngine(src, popt);
    for (const ScheduleOp& op : ops) {
      if (op.kind == ScheduleOp::kImpute) continue;
      Status sw = ApplyOp(writer.get(), src, op);
      Status sr = ApplyOp(reference.get(), src, op);
      ASSERT_EQ(sw.ok(), sr.ok()) << "applied " << applied;
      if (!sw.ok()) continue;
      if (++applied == kSnapshotAt) ASSERT_TRUE(writer->SaveSnapshot().ok());
    }
    ASSERT_GT(applied, kSnapshotAt);
    ASSERT_TRUE(writer->FlushPersistence().ok());
  }

  core::IimOptions other = popt;
  other.k = popt.k + 1;
  Result<std::unique_ptr<OnlineIim>> refused =
      OnlineIim::Create(src.schema(), kTarget, Features(), other);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();

  Result<std::unique_ptr<OnlineIim>> reopened =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  OnlineIim& rec = *reopened.value();
  EXPECT_EQ(rec.stats().snapshots_loaded, 1u);
  EXPECT_EQ(rec.stats().log_records_replayed, applied - kSnapshotAt);
  EXPECT_EQ(rec.durable_ops(), applied);
  ExpectEngineStateEq(&rec, reference.get(), probes, "reopen after refusal");
}

// An image whose fingerprint matches but carries more than this engine
// writes — the shape of a retired layout that extended the engine's
// meta section — is refused as a layout mismatch, not half-read.
TEST(RefusedReopenTest, LongerFingerprintIsALayoutMismatch) {
  data::Table src = HeterogeneousTable(40, 4, 37);
  core::IimOptions opt = RecoveryOptions();
  std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
  for (size_t i = 0; i < 20; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  std::string bytes = a->SerializeSnapshot();

  Result<persist::SnapshotView> view = persist::SnapshotView::Parse(bytes);
  ASSERT_TRUE(view.ok());
  Result<persist::SectionReader> meta =
      view.value().Section(persist::kSecMeta);
  ASSERT_TRUE(meta.ok());
  persist::SnapshotBuilder b(view.value().ops_covered());
  b.BeginSection(persist::kSecMeta);
  while (meta.value().remaining() > 0) b.PutU8(meta.value().U8());
  b.PutU64(3);  // one field more than the engine's fingerprint
  std::string foreign = b.Finish();

  std::unique_ptr<OnlineIim> c = MakeEngine(src, opt);
  Status st = c->RestoreFromSnapshot(foreign);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(c->size(), 0u);
}

// ---------------------------------------------------------------------------
// Service integration: shutdown flush makes every acknowledged op durable

TEST(ServicePersistenceTest, ShutdownFlushesAndRecovers) {
  data::Table src = HeterogeneousTable(60, 4, 21);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  // fsync only at rotation/shutdown: the shutdown flush is what makes the
  // tail durable here.
  popt.wal_fsync_every = 0;

  {
    std::unique_ptr<OnlineIim> engine = MakeEngine(src, popt);
    ImputationService service(engine.get());
    std::vector<std::future<Status>> acks;
    for (size_t i = 0; i < 30; ++i) {
      acks.push_back(service.SubmitIngest(src.Row(i).ToVector()));
    }
    std::future<Result<double>> answer = service.SubmitImpute(probes[0]);
    service.Shutdown();
    for (std::future<Status>& f : acks) EXPECT_TRUE(f.get().ok());
    EXPECT_TRUE(answer.get().ok());

    // Post-shutdown submissions resolve immediately to kShutdown.
    std::future<Status> late = service.SubmitIngest(src.Row(30).ToVector());
    EXPECT_EQ(late.get().code(), StatusCode::kShutdown);
    std::future<Result<double>> late_imp = service.SubmitImpute(probes[0]);
    EXPECT_EQ(late_imp.get().status().code(), StatusCode::kShutdown);
    EXPECT_EQ(service.stats().shutdown_rejected, 2u);
    service.Shutdown();  // idempotent (and the destructor calls it again)
  }
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(ref->Ingest(src.Row(i)).ok());
  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->durable_ops(), 30u);
  ExpectEngineStateEq(rec.value().get(), ref.get(), probes, "service");
}

}  // namespace
}  // namespace iim::stream
