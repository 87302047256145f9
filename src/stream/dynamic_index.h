// DynamicIndex: an appendable exact nearest-neighbor index for streaming
// ingestion with sliding-window eviction.
//
// Points live in one flat contiguous row-major buffer with amortized
// growth. Below the same 4096-point threshold MakeIndex uses, queries scan
// every slot brute-force. Once the live count crosses it, a FlatKdTree is
// built, and from then on the tree covers EVERY slot: Append files each
// arrival into the leaf its coordinates reach through the existing split
// planes (FlatKdTree::Insert — exact, the planes stay valid bounds), so
// there is no unindexed tail for queries to brute-force. Leaf inserts cost
// only balance; once the inserts since the last build exceed both
// Options::min_rebuild_tail and a quarter of the points that build
// placed, a fresh tree is built over everything to restore it —
// amortized O(log n) rebuilds over the stream's lifetime.
//
// Rebuilds happen OFF the ingest path (Options::background_rebuild, on by
// default): the replacement tree is built double-buffered on a ThreadPool
// task — a brief shared-lock pass copies the buffer, the O(n log n) build
// runs with no lock held — while arrivals keep joining the installed
// tree's leaves and queries keep searching it. The next writer operation
// installs the finished tree with a pointer swap after filing into it the
// few arrivals that landed during the build. A compaction racing the
// build hands the build its old-slot -> new-slot map, and the installer
// renumbers the finished tree through it: no build is ever thrown away
// because the window moved. Per-arrival cost is thereby bounded: the
// worst Append does a push, one leaf insert and a swap, never an
// O(n log n) build under the writer lock. A launching writer only
// packages the build under the lock; the task is queued on the builder
// (pool mutex, worker wake-up) after the lock is released. With
// Options::expected_live set, the point buffer is reserved for the
// window up front, so no push regrows it under the lock either.
//
// Eviction is two-phase. Remove(slot) *tombstones* the row: it stays in
// the buffer and in its leaf (slot ids of the survivors are untouched)
// but every query skips it — the tree search takes the bitmap as an
// alive-filter. Once tombstones pile up past a fraction of the live rows
// (NeedsCompaction), the owner calls Compact(): dead rows are physically
// dropped, survivors slide onto a dense prefix in their original relative
// order, the tree is renumbered through the same old-slot -> new-slot map
// (FlatKdTree::Remap) instead of being dropped, and the map is returned
// so the owner can remap its own slot-indexed state.
//
// Results are bit-identical to a BruteForceIndex over the live points for
// every append/remove/compact interleaving AND every rebuild timing: the
// tree and the below-threshold scan use the same Formula 1 distance and
// the same (distance, slot) tie order, and compaction preserves relative
// slot order so ties keep breaking the same way.
//
// Concurrency: appends, removals and compaction take the writer side of a
// shared_mutex, queries the reader side for their whole duration, so an
// in-flight query always sees a consistent snapshot — it can never observe
// a half-filed leaf insert, a buffer mid-reallocation, or a half-compacted
// slot mapping. The background builder reads only its own buffer copy
// (taken under a reader lock), so it races with nothing.

#ifndef IIM_STREAM_DYNAMIC_INDEX_H_
#define IIM_STREAM_DYNAMIC_INDEX_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "neighbors/kdtree.h"

namespace iim::stream {

class DynamicIndex final : public neighbors::NeighborIndex {
 public:
  struct Options {
    // Minimum live size before any KD-tree is built (matches the
    // MakeIndex default: brute force is faster below it).
    size_t kdtree_threshold = 4096;
    // Rebuild once the leaf inserts since the last build exceed both this
    // floor and a quarter of the points that build placed. (With no tree
    // yet, every slot counts: the first build waits for the threshold
    // and this floor.)
    size_t min_rebuild_tail = 1024;
    // NeedsCompaction() once tombstones exceed both this floor and this
    // fraction of the live rows.
    size_t min_compact_tombstones = 64;
    double max_tombstone_fraction = 0.25;
    // Build replacement KD-trees on a background ThreadPool task and
    // install them with a brief writer-lock swap (the double-buffered
    // path described above). false rebuilds synchronously inside
    // Append/Compact under the writer lock — the pre-overhaul behavior,
    // kept as the tail-latency baseline for benches.
    bool background_rebuild = true;
    // The live count the owner holds the index at (its sliding window; 0
    // = unbounded). The point buffer is reserved up front for that many
    // rows plus the arrival that overflows them and the tombstones
    // compaction tolerates, so Append never regrows it under the writer
    // lock.
    size_t expected_live = 0;
  };

  // One coherent snapshot of every counter, taken under a single lock
  // acquisition — the individual accessors below each lock separately, so
  // reading several while a background builder runs can tear (e.g. a swap
  // landing between rebuilds() and tree_size()).
  struct Stats {
    size_t live = 0;        // non-tombstoned rows
    size_t slots = 0;       // including tombstones
    size_t tombstones = 0;
    size_t tree_size = 0;   // points covered by the installed tree
    size_t tail_size = 0;   // slots - tree_size: 0 whenever a tree exists
    size_t inserted = 0;    // leaf (overflow) inserts since the last build
    size_t rebuilds = 0;    // trees installed (sync + background swaps)
    size_t launches = 0;    // background builds launched
    size_t swaps = 0;       // background builds installed
    size_t discarded = 0;   // background builds dropped (failed mid-build)
    size_t compactions = 0;
    bool rebuild_in_flight = false;
    // Longest writer-lock hold inside one Append — the ingest critical
    // section that bounds both arrival latency and how long concurrent
    // queries can be blocked. In-lock rebuilds land their O(n log n)
    // build here; the background path keeps it at the push, the leaf
    // insert and the install swap.
    // (Wall-clock per-arrival percentiles can hide the difference on
    // single-core machines, where the builder competes for the CPU; this
    // cannot.)
    double max_append_hold_seconds = 0.0;
    // Same for Compact (the buffer and tree swaps, plus the in-lock build
    // when background_rebuild is off).
    double max_compact_hold_seconds = 0.0;
  };

  // Compact()'s remap value for evicted slots.
  static constexpr size_t kGone = neighbors::FlatKdTree::kDropped;

  // Indexes attribute subset `cols` of rows appended later; `cols` must be
  // non-empty. Starts empty.
  explicit DynamicIndex(std::vector<int> cols);
  DynamicIndex(std::vector<int> cols, const Options& options);
  ~DynamicIndex() override;

  // Appends one full-arity row (its `cols` values are gathered, matching
  // the BruteForceIndex constructor), growing the buffer amortized-O(1);
  // the new row's slot id is the current slots() count. Files the row
  // into the installed tree's leaves. May launch (or install) a
  // background rebuild per the rebuild cadence — but never blocks on one.
  void Append(const data::RowView& row);

  // Tombstones one slot: it disappears from every subsequent query but
  // keeps occupying its slot until Compact(). Returns false (a no-op) for
  // an out-of-range or already-dead slot.
  bool Remove(size_t slot);

  // True once the tombstone pile is worth a physical compaction.
  bool NeedsCompaction() const;

  // Drops tombstoned rows, slides survivors onto a dense prefix (relative
  // order preserved), renumbers the tree through the same map when the
  // survivors still clear kdtree_threshold (drops it otherwise — queries
  // scan brute-force below the threshold), and returns the old-slot ->
  // new-slot map (kGone for evicted slots) for the owner's own remapping.
  // An in-flight background build is kept: it takes the map along and is
  // renumbered when it installs. When the rebuild cadence is due, a
  // rebuild over the compacted buffer is launched here, so it never
  // covers the rows this call dropped.
  //
  // The O(n·d) survivor slide and the O(n) tree renumbering are STAGED:
  // both run into side buffers under a reader lock (the caller is the
  // engine's single writer, so slot state is stable for the whole call
  // and only queries / the background builder share the index), and the
  // writer lock is taken only for the O(1) buffer and tree swaps (plus
  // packaging a due rebuild, queued after the lock is released) — the
  // same double-buffer install discipline the background rebuild uses,
  // so a compaction never blocks concurrent queries for the slide. The
  // old buffers and tree are freed after the lock is released. With no tombstones it early-outs with the identity
  // map, leaving the tree and any in-flight build untouched.
  std::vector<size_t> Compact();

  // Every live slot whose Formula 1 distance to `query` is <= radius
  // (ties INCLUDED), ascending by slot with exact distances attached —
  // the same (value, order) a full scan over slots would produce, so a
  // caller iterating candidates visits them in scan order. Exact like
  // Query; an infinite radius degenerates to the full live scan, a
  // negative one returns nothing.
  std::vector<neighbors::Neighbor> RangeQuery(const data::RowView& query,
                                              double radius) const;

  // The arrival hot path's two lookups under ONE shared lock: `nearest`
  // gets exactly Query(query, options) and `in_range` exactly
  // RangeQuery(query, radius) (below the KD-tree threshold, one scan
  // feeds both from a single distance evaluation per slot). Bitwise
  // identical to the standalone calls. A negative or non-finite radius
  // leaves `in_range` empty (the infinite-radius degenerate case stays on
  // RangeQuery's full scan); options.k == 0 leaves `nearest` empty.
  void QueryWithRange(const data::RowView& query,
                      const neighbors::QueryOptions& options, double radius,
                      std::vector<neighbors::Neighbor>* nearest,
                      std::vector<neighbors::Neighbor>* in_range) const;

  // Blocks until no background build is in flight, installing (or
  // discarding) the result. Queries never need this — results are exact
  // at every moment — it is a determinism barrier for tests, benches and
  // idle streams that want the tree fresh before a read-heavy phase.
  void WaitForRebuild();

  // Installs externally saved slot state into an EMPTY index (snapshot
  // restore). points.size() must be alive.size() * cols().size(). Builds
  // a tree immediately when the live count clears kdtree_threshold —
  // through the background machinery when enabled (queries scan every
  // slot, still exact, until that first tree lands; arrivals meanwhile
  // are filed into it at install), in place otherwise.
  Status RestoreState(std::vector<double> points, std::vector<uint8_t> alive);

  std::vector<neighbors::Neighbor> Query(
      const data::RowView& query,
      const neighbors::QueryOptions& options) const override;
  std::vector<neighbors::Neighbor> QueryAll(const data::RowView& query,
                                            size_t exclude) const override;
  // Live (non-tombstoned) rows.
  size_t size() const override;

  const std::vector<int>& cols() const { return cols_; }

  Stats stats() const;

  // Single-field conveniences (each takes the lock once; use stats() when
  // reading more than one).
  size_t slots() const;
  size_t tombstones() const;
  size_t tree_size() const;
  size_t rebuilds() const;
  size_t compactions() const;

 private:
  // One double-buffered tree build. The task owns a copy of the buffer it
  // covers (taken under a reader lock once the task starts), builds with
  // no lock held, then publishes through `done`; a writer installs the
  // tree after renumbering it through any compactions that landed since
  // the copy and filing the arrivals since. Shared-ptr'd so an abandoning
  // index (destruction) can just drop its reference.
  struct PendingBuild {
    size_t n = 0;  // slots the build covers, numbered as when it copied
    // Compact()'s old-slot -> new-slot maps not yet applied to `tree`,
    // oldest first. Pushed by Compact under the writer lock; cleared by
    // the task under the reader lock (dropped when a compaction beat the
    // copy, applied once the build is done) and applied by the installer
    // under the writer lock — never touched by two threads at once.
    std::vector<std::vector<size_t>> remaps;
    std::vector<double> snapshot;
    neighbors::FlatKdTree tree;
    // Set by the task when the build died short of a usable tree (the
    // "index.rebuild" fail point): installed as a discard, never a swap.
    std::atomic<bool> abandoned{false};
    std::atomic<bool> done{false};
  };

  // Exact top-k over the tree (or every slot when there is none),
  // unsorted heap out.
  void Collect(const std::vector<double>& q,
               const neighbors::QueryOptions& options,
               std::vector<neighbors::Neighbor>* heap) const;
  // Adopts a finished background build (writer lock held by caller).
  // Returns the replaced tree: the caller drops it after releasing the
  // lock, so freeing it never lengthens the writer-lock hold.
  neighbors::FlatKdTree InstallLocked();
  // Files slots [tree->size(), n_) into a non-empty `tree` (a lock held
  // by the caller).
  void FileArrivalsLocked(neighbors::FlatKdTree* tree) const;
  // Brings a finished build's tree up to the current window: applies and
  // clears its pending remaps, then files the slots past it (either lock
  // side held by the caller — the task catches up under the reader side,
  // the installer finishes under the writer side).
  void CatchUpLocked(PendingBuild* p) const;
  // The rebuild cadence: true when no build is in flight, the live count
  // clears kdtree_threshold, and the leaf inserts since the last build
  // (every slot, with no tree) reach max(min_rebuild_tail, built / 4).
  bool RebuildDueLocked() const;
  // A background build, packaged but not yet queued: the launching
  // writer hands it to the builder pool (LaunchBuild) only after
  // releasing the writer lock.
  using BuildTask = std::shared_ptr<std::packaged_task<void()>>;
  // Rebuilds over the current slots: prepares a background build (the
  // returned task), or builds in place when background_rebuild is off
  // (returns null). Writer lock held by caller; no build may be pending.
  BuildTask RebuildLocked();
  // Prepares a background build over the current slots: pending_ and
  // build_future_ are set, so waiters see the build at once (writer lock
  // held by caller; no build may be pending).
  BuildTask PrepareBuildLocked();
  // Queues a prepared build on the builder (no lock held); no-op for
  // null.
  void LaunchBuild(BuildTask task);
  // Reserves the point buffer and bitmap for options_.expected_live
  // (lock held by caller).
  void ReserveLocked();

  std::vector<int> cols_;
  Options options_;

  mutable std::shared_mutex mu_;
  std::vector<double> points_;  // row-major n_ x cols_.size()
  std::vector<uint8_t> alive_;  // n_ entries; 0 = tombstoned
  size_t n_ = 0;                // slots, including tombstones
  size_t dead_ = 0;             // tombstoned slots
  // Empty, or covering every slot [0, n_) (tombstones included).
  neighbors::FlatKdTree tree_;
  std::shared_ptr<PendingBuild> pending_;  // non-null while a build runs
  // shared_future so concurrent WaitForRebuild callers can all block on
  // the same build instead of one consuming the handle.
  std::shared_future<void> build_future_;
  size_t rebuilds_ = 0;
  size_t launches_ = 0;
  size_t swaps_ = 0;
  size_t discarded_ = 0;
  size_t compactions_ = 0;
  double max_append_hold_seconds_ = 0.0;
  double max_compact_hold_seconds_ = 0.0;

  // Created (worker prestarted) at construction when background_rebuild
  // is on, so no Append ever pays thread creation; declared last so its
  // destructor (which drains any in-flight build task) runs before the
  // members the task reads are torn down.
  std::unique_ptr<ThreadPool> builder_;

  // Fault-injection hook: lets the regression test for the
  // pending-without-future hang manufacture that broken state.
  friend struct DynamicIndexTestPeer;
};

}  // namespace iim::stream

#endif  // IIM_STREAM_DYNAMIC_INDEX_H_
