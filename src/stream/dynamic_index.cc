#include "stream/dynamic_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "neighbors/distance.h"

namespace iim::stream {

DynamicIndex::DynamicIndex(std::vector<int> cols)
    : DynamicIndex(std::move(cols), Options()) {}

DynamicIndex::DynamicIndex(std::vector<int> cols, const Options& options)
    : cols_(std::move(cols)), options_(options) {
  if (options_.background_rebuild) {
    // Bring the builder worker up now, outside any lock: its OS
    // thread-creation cost must not land inside the first launching
    // Append's writer-lock hold (the metric this index exists to bound).
    builder_ = std::make_unique<ThreadPool>(1);
    builder_->Prestart();
  }
  ReserveLocked();  // no other thread can see the index yet
}

void DynamicIndex::ReserveLocked() {
  if (options_.expected_live == 0) return;
  const size_t live = options_.expected_live;
  const size_t tombstones = std::max(
      options_.min_compact_tombstones,
      static_cast<size_t>(options_.max_tombstone_fraction *
                          static_cast<double>(live + 1)) +
          1);
  const size_t slots = live + 1 + tombstones;
  points_.reserve(slots * cols_.size());
  alive_.reserve(slots);
}

DynamicIndex::~DynamicIndex() {
  // Joining the builder pool drains any in-flight build task (which reads
  // mu_ and points_) before the rest of the members are destroyed.
  builder_.reset();
}

neighbors::FlatKdTree DynamicIndex::InstallLocked() {
  neighbors::FlatKdTree retired;
  if (pending_ == nullptr ||
      !pending_->done.load(std::memory_order_acquire)) {
    return retired;
  }
  // The build's shared state (and with it the PendingBuild) outlives this
  // call inside build_future_, so nothing heavy may stay in it.
  std::shared_ptr<PendingBuild> p = std::move(pending_);
  if (p->abandoned.load(std::memory_order_acquire)) {
    // The task bailed out (injected rebuild failure) before producing a
    // tree; the live tree stays, and the rebuild cadence relaunches later.
    ++discarded_;
    return retired;
  }
  // The task caught the tree up when it finished; only what changed
  // since (usually nothing, or one arrival) is left.
  CatchUpLocked(p.get());
  if (p->tree.empty()) {
    // Every row the build covered was evicted before it landed.
    ++discarded_;
    return retired;
  }
  // The swap is the only whole-tree change queries can ever observe, and
  // it is O(1).
  retired = std::move(tree_);
  tree_ = std::move(p->tree);
  ++rebuilds_;
  ++swaps_;
  return retired;
}

void DynamicIndex::FileArrivalsLocked(neighbors::FlatKdTree* tree) const {
  for (size_t i = tree->size(); i < n_; ++i) tree->Insert(points_.data(), i);
}

void DynamicIndex::CatchUpLocked(PendingBuild* p) const {
  // Renumbering keeps the survivors of the rows the tree covers on a
  // dense prefix, so after it the tree still covers [0, size()) and the
  // arrivals to file are exactly the slots past it.
  for (const std::vector<size_t>& remap : p->remaps) p->tree.Remap(remap);
  p->remaps.clear();
  if (!p->tree.empty()) FileArrivalsLocked(&p->tree);
}

bool DynamicIndex::RebuildDueLocked() const {
  if (pending_ != nullptr) return false;  // one build in flight at a time
  if (n_ - dead_ < options_.kdtree_threshold) return false;
  size_t due = tree_.empty() ? n_ : tree_.inserted();
  return due >= std::max(options_.min_rebuild_tail, tree_.built() / 4);
}

DynamicIndex::BuildTask DynamicIndex::RebuildLocked() {
  if (options_.background_rebuild) return PrepareBuildLocked();
  tree_.Build(points_.data(), n_, cols_.size());
  ++rebuilds_;
  return nullptr;
}

void DynamicIndex::LaunchBuild(BuildTask task) {
  // The constructor created and prestarted the builder for every
  // background_rebuild index, so no OS thread is spawned here either.
  if (task != nullptr) builder_->Post(std::move(task));
}

DynamicIndex::BuildTask DynamicIndex::PrepareBuildLocked() {
  pending_ = std::make_shared<PendingBuild>();
  pending_->n = n_;
  assert(builder_ != nullptr);
  ++launches_;
  std::shared_ptr<PendingBuild> p = pending_;
  auto task = std::make_shared<std::packaged_task<void()>>([this, p] {
    size_t d = cols_.size();
    {
      // Brief reader-side pass: copy the buffer while writers are out.
      // Queries (also readers) proceed concurrently. A compaction that
      // landed since the launch moved the rows, so the build retargets
      // to the window as it is now, and only compactions after this copy
      // are replayed at install.
      std::shared_lock<std::shared_mutex> lock(mu_);
      if (!p->remaps.empty()) {
        p->remaps.clear();
        p->n = n_;
      }
      p->snapshot.assign(points_.begin(),
                         points_.begin() + static_cast<long>(p->n * d));
    }
    // Fault-injection site for the background task itself: an injected
    // error abandons this build (the live tree keeps serving and the
    // rebuild cadence relaunches on a later append); latency stretches
    // the no-lock build window; crash kills the process mid-rebuild.
    if (!iim::fail::Inject("index.rebuild").ok()) {
      p->abandoned.store(true, std::memory_order_release);
      p->done.store(true, std::memory_order_release);
      return;
    }
    // The O(n log n) build runs with no lock held.
    p->tree.Build(p->snapshot.data(), p->n, d);
    p->snapshot.clear();
    p->snapshot.shrink_to_fit();
    {
      // Catch up with the compactions and arrivals that landed during the
      // build here, under the reader side, so the installing writer's
      // hold stays O(1) whatever the build took.
      std::shared_lock<std::shared_mutex> lock(mu_);
      CatchUpLocked(p.get());
    }
    p->done.store(true, std::memory_order_release);
  });
  // Set before the task is queued: a WaitForRebuild that sees pending_
  // always finds the future of this build.
  build_future_ = task->get_future().share();
  return task;
}

void DynamicIndex::Append(const data::RowView& row) {
  neighbors::FlatKdTree retired;  // freed after the lock is released
  BuildTask launch;               // queued after the lock is released
  std::unique_lock<std::shared_mutex> lock(mu_);
  Stopwatch hold;  // writer-lock hold: the ingest critical section
  size_t d = cols_.size();
  // Plain push_back: within options_.expected_live the buffer was
  // reserved up front; past it (or unbounded), capacity doubling keeps
  // appends amortized O(1).
  for (size_t j = 0; j < d; ++j) {
    points_.push_back(row[static_cast<size_t>(cols_[j])]);
  }
  alive_.push_back(1);
  ++n_;
  // Adopt a finished build first (it files this arrival itself), then
  // file the arrival into whichever tree is installed.
  retired = InstallLocked();
  if (!tree_.empty()) FileArrivalsLocked(&tree_);
  if (RebuildDueLocked()) launch = RebuildLocked();
  max_append_hold_seconds_ =
      std::max(max_append_hold_seconds_, hold.ElapsedSeconds());
  lock.unlock();
  LaunchBuild(std::move(launch));
}

bool DynamicIndex::Remove(size_t slot) {
  neighbors::FlatKdTree retired;
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (slot >= n_ || alive_[slot] == 0) return false;
  alive_[slot] = 0;
  ++dead_;
  retired = InstallLocked();  // opportunistic
  return true;
}

bool DynamicIndex::NeedsCompaction() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t live = n_ - dead_;
  return dead_ >= options_.min_compact_tombstones &&
         static_cast<double>(dead_) >
             options_.max_tombstone_fraction * static_cast<double>(live);
}

std::vector<size_t> DynamicIndex::Compact() {
  size_t d = cols_.size();
  // Stage the survivor slide and the tree renumbering OFF the writer
  // lock. The owning core serializes every mutation, so this thread is
  // the index's only writer for the whole call: n_/alive_/points_/tree_/
  // pending_ cannot change between the staging pass and the install
  // below. The shared lock makes the read legal against the only
  // concurrent actors — queries and the background builder, both
  // readers.
  std::vector<size_t> remap;
  std::vector<double> packed;
  std::vector<uint8_t> alive;
  neighbors::FlatKdTree tree;
  std::vector<size_t> build_remap;  // the in-flight build's copy of remap
  BuildTask launch;                 // queued after the lock is released
  size_t live = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (dead_ == 0) {
      // Nothing to drop. Hand back the identity map and leave the tree
      // and any in-flight build untouched — a spurious Compact must never
      // disturb a build or force a rebuild.
      remap.resize(n_);
      for (size_t i = 0; i < n_; ++i) remap[i] = i;
      return remap;
    }
    live = n_ - dead_;
    remap.assign(n_, kGone);
    // Keep the old buffers' capacity: the slide only shrinks the window,
    // and a packed-to-fit buffer would make the next Append reallocate
    // and copy the whole window under the writer lock.
    packed.reserve(points_.capacity());
    alive.reserve(alive_.capacity());
    size_t next = 0;
    for (size_t i = 0; i < n_; ++i) {
      if (alive_[i] == 0) continue;
      remap[i] = next++;
      packed.insert(packed.end(),
                    points_.begin() + static_cast<long>(i * d),
                    points_.begin() + static_cast<long>((i + 1) * d));
    }
    alive.assign(live, 1);
    // The survivors keep their coordinates, so the split planes stay
    // exact bounds; only ids change. Below the threshold the tree is
    // dropped instead — brute force is faster there.
    if (!tree_.empty() && live >= options_.kdtree_threshold) {
      tree = tree_;
      tree.Remap(remap);
    }
    if (pending_ != nullptr) build_remap = remap;
  }

  // Install: the writer lock holds only for the O(1) buffer and tree
  // swaps and packaging a due rebuild — the same install discipline as a
  // background-build swap, so concurrent queries are never blocked
  // behind the O(n·d) slide above. The old buffers and tree leave in
  // `packed`, `alive` and `tree`, freed after the lock is released.
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Stopwatch hold;
    points_.swap(packed);
    alive_.swap(alive);
    std::swap(tree_, tree);
    n_ = live;
    dead_ = 0;
    ++compactions_;
    // An in-flight build keeps going over its copy; it replays this map
    // when it installs (or retargets, if it has not copied yet).
    if (pending_ != nullptr) pending_->remaps.push_back(std::move(build_remap));
    // The renumbering kept the insert count, so a rebuild due now is
    // launched over the compacted buffer: it never covers the rows just
    // dropped, and no Append-side launch has to race this compaction.
    if (RebuildDueLocked()) launch = RebuildLocked();
    max_compact_hold_seconds_ =
        std::max(max_compact_hold_seconds_, hold.ElapsedSeconds());
  }
  LaunchBuild(std::move(launch));
  return remap;
}

void DynamicIndex::WaitForRebuild() {
  while (true) {
    std::shared_future<void> f;
    neighbors::FlatKdTree retired;
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      retired = InstallLocked();
      if (pending_ == nullptr) return;
      f = build_future_;  // copy: concurrent waiters share the handle
      if (!f.valid()) {
        // A pending build with no task behind it can never complete;
        // looping on it would re-acquire the lock forever. Treat the
        // stale pending_ as "no build" and clear it.
        pending_.reset();
        return;
      }
    }
    // Wait with no lock held (the builder needs the reader side).
    f.wait();
  }
}

Status DynamicIndex::RestoreState(std::vector<double> points,
                                  std::vector<uint8_t> alive) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t d = cols_.size();
  if (points.size() != alive.size() * d) {
    return Status::InvalidArgument(
        "DynamicIndex::RestoreState: point buffer does not match the alive "
        "bitmap times the indexed dimensionality");
  }
  if (n_ != 0) {
    return Status::FailedPrecondition(
        "DynamicIndex::RestoreState: index is not empty");
  }
  points_ = std::move(points);
  alive_ = std::move(alive);
  ReserveLocked();
  n_ = alive_.size();
  dead_ = 0;
  for (uint8_t a : alive_) {
    if (a == 0) ++dead_;
  }
  BuildTask launch;
  if (n_ - dead_ >= options_.kdtree_threshold && n_ > 0) {
    launch = RebuildLocked();
  }
  lock.unlock();
  LaunchBuild(std::move(launch));
  return Status::OK();
}

void DynamicIndex::Collect(const std::vector<double>& q,
                           const neighbors::QueryOptions& options,
                           std::vector<neighbors::Neighbor>* heap) const {
  assert(tree_.empty() || tree_.size() == n_);
  if (!tree_.empty()) {
    tree_.Search(points_.data(), q.data(), options, heap,
                 dead_ > 0 ? alive_.data() : nullptr);
    return;
  }
  // No tree (below kdtree_threshold, or before the first build lands):
  // scan every slot. The bounded push keeps at most k entries alive
  // instead of materialising the scan: once the first k fill, a point
  // costs one comparison against the heap front unless it actually
  // belongs in the top k. The kept set is the k smallest in the
  // (distance, slot) total order either way — the tree's answer bit for
  // bit.
  size_t d = cols_.size();
  for (size_t i = 0; i < n_; ++i) {
    if (i == options.exclude || alive_[i] == 0) continue;
    neighbors::PushNeighborHeap(
        heap, options.k,
        neighbors::Neighbor{
            i, neighbors::NormalizedEuclidean(q.data(),
                                              points_.data() + i * d, d)});
  }
}

namespace {

bool BySlot(const neighbors::Neighbor& a, const neighbors::Neighbor& b) {
  return a.index < b.index;
}

}  // namespace

std::vector<neighbors::Neighbor> DynamicIndex::Query(
    const data::RowView& query,
    const neighbors::QueryOptions& options) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<neighbors::Neighbor> heap;
  if (options.k == 0 || n_ - dead_ == 0) return heap;
  heap.reserve(options.k + 1);
  std::vector<double> q = query.Gather(cols_);
  Collect(q, options, &heap);
  std::sort(heap.begin(), heap.end(), neighbors::NeighborLess);
  return heap;
}

std::vector<neighbors::Neighbor> DynamicIndex::RangeQuery(
    const data::RowView& query, double radius) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<neighbors::Neighbor> out;
  size_t d = cols_.size();
  if (radius < 0.0 || n_ - dead_ == 0) return out;
  std::vector<double> q = query.Gather(cols_);
  if (!tree_.empty() && std::isfinite(radius)) {
    tree_.RangeSearch(points_.data(), q.data(), radius, &out,
                      dead_ > 0 ? alive_.data() : nullptr);
    // Tree hits come out in traversal order; ascending slot order is what
    // callers replaying a scan need.
    std::sort(out.begin(), out.end(), BySlot);
    return out;
  }
  // No tree, or an unbounded radius (every live slot qualifies, so the
  // tree cannot prune): scan, already ascending by slot.
  for (size_t i = 0; i < n_; ++i) {
    if (alive_[i] == 0) continue;
    double dist =
        neighbors::NormalizedEuclidean(q.data(), points_.data() + i * d, d);
    if (dist <= radius) out.push_back(neighbors::Neighbor{i, dist});
  }
  return out;
}

void DynamicIndex::QueryWithRange(
    const data::RowView& query, const neighbors::QueryOptions& options,
    double radius, std::vector<neighbors::Neighbor>* nearest,
    std::vector<neighbors::Neighbor>* in_range) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  nearest->clear();
  in_range->clear();
  size_t d = cols_.size();
  if (n_ - dead_ == 0) return;
  std::vector<double> q = query.Gather(cols_);
  bool want_knn = options.k > 0;
  bool want_range = radius >= 0.0 && std::isfinite(radius);
  if (want_knn) nearest->reserve(options.k + 1);
  if (!tree_.empty()) {
    const uint8_t* alive = dead_ > 0 ? alive_.data() : nullptr;
    if (want_knn) {
      tree_.Search(points_.data(), q.data(), options, nearest, alive);
    }
    if (want_range) {
      tree_.RangeSearch(points_.data(), q.data(), radius, in_range, alive);
      std::sort(in_range->begin(), in_range->end(), BySlot);
    }
  } else {
    // One pass over every slot feeds both consumers from a single
    // distance evaluation; the kernel and both merge/ordering rules are
    // exactly Query's and RangeQuery's, so each output is bitwise the
    // respective standalone call.
    for (size_t i = 0; i < n_; ++i) {
      if (alive_[i] == 0) continue;
      double dist =
          neighbors::NormalizedEuclidean(q.data(), points_.data() + i * d, d);
      if (want_range && dist <= radius) {
        in_range->push_back(neighbors::Neighbor{i, dist});
      }
      if (want_knn && i != options.exclude) {
        neighbors::PushNeighborHeap(nearest, options.k,
                                    neighbors::Neighbor{i, dist});
      }
    }
  }
  if (want_knn) {
    std::sort(nearest->begin(), nearest->end(), neighbors::NeighborLess);
  }
}

std::vector<neighbors::Neighbor> DynamicIndex::QueryAll(
    const data::RowView& query, size_t exclude) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t d = cols_.size();
  std::vector<double> q = query.Gather(cols_);
  std::vector<neighbors::Neighbor> out;
  out.reserve(n_ - dead_);
  for (size_t i = 0; i < n_; ++i) {
    if (i == exclude || alive_[i] == 0) continue;
    out.push_back(neighbors::Neighbor{
        i, neighbors::NormalizedEuclidean(q.data(), points_.data() + i * d,
                                          d)});
  }
  std::sort(out.begin(), out.end(), neighbors::NeighborLess);
  return out;
}

size_t DynamicIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return n_ - dead_;
}

DynamicIndex::Stats DynamicIndex::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Stats s;
  s.live = n_ - dead_;
  s.slots = n_;
  s.tombstones = dead_;
  s.tree_size = tree_.size();
  s.tail_size = n_ - tree_.size();
  s.inserted = tree_.inserted();
  s.rebuilds = rebuilds_;
  s.launches = launches_;
  s.swaps = swaps_;
  s.discarded = discarded_;
  s.compactions = compactions_;
  s.rebuild_in_flight = pending_ != nullptr;
  s.max_append_hold_seconds = max_append_hold_seconds_;
  s.max_compact_hold_seconds = max_compact_hold_seconds_;
  return s;
}

size_t DynamicIndex::slots() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return n_;
}

size_t DynamicIndex::tombstones() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return dead_;
}

size_t DynamicIndex::tree_size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tree_.size();
}

size_t DynamicIndex::rebuilds() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return rebuilds_;
}

size_t DynamicIndex::compactions() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return compactions_;
}

}  // namespace iim::stream
