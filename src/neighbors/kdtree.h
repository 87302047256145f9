// KD-tree accelerated exact nearest-neighbor search.
//
// FlatKdTree is the tree core: it builds over an n x d row-major point
// buffer and answers bounded top-k searches with distances that match
// Formula 1 exactly, so swapping it in for a brute-force scan never
// changes results, only speed. KdTreeIndex wraps it behind the
// NeighborIndex contract for a frozen data::Table; stream::DynamicIndex
// reuses the same core over its whole sliding window, filing arrivals into
// leaves (Insert) and renumbering survivors after a compaction (Remap).

#ifndef IIM_NEIGHBORS_KDTREE_H_
#define IIM_NEIGHBORS_KDTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "neighbors/knn.h"

namespace iim::neighbors {

// Exact KD-tree over a flat row-major buffer of n points of dimension d.
//
// The buffer is NOT retained: Build reads it to place the splits, and every
// Search takes it again. Callers may grow or move the underlying storage
// as long as every covered id still addresses its own bit-unchanged d
// values — appended ids join through Insert, and a compaction that slides
// points to new ids renumbers the tree through Remap.
//
// Every plane invariant is exact: points in a node's left subtree have
// axis value <= split, points in its right subtree >= split. Build places
// them that way, and Insert keeps it ("<= split goes left"), so the
// plane-distance pruning of Search / RangeSearch never skips a point no
// matter how many inserts a leaf has taken. Inserts only cost balance:
// a leaf's overflow list grows until the owner rebuilds.
class FlatKdTree {
 public:
  // Remap()'s value for a dropped id.
  static constexpr size_t kDropped = static_cast<size_t>(-1);

  FlatKdTree() = default;

  void Build(const double* points, size_t n, size_t d);
  void Clear();

  // Files point `id` (its d values at points + id * d) in the leaf its
  // coordinates reach through the split planes. Requires a built tree
  // (!empty()); ids need not be dense or ordered.
  void Insert(const double* points, size_t id);

  // Renumbers every covered id through `remap` (old id -> new id), dropping
  // ids mapped to kDropped; every covered id must be < remap.size(). The
  // planes stay as they are. Leaf overflow is folded into the leaves'
  // ranges, so a remapped tree scans contiguous leaves again. A remap
  // that drops every point clears the tree. built() and inserted() are
  // kept: renumbering does not restore balance.
  void Remap(const std::vector<size_t>& remap);

  // Points covered: the last Build's, plus inserts, minus remap drops
  // (0 = no tree).
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  // Points the last Build placed, and Insert calls since then: the
  // owner's rebuild cadence.
  size_t built() const { return built_; }
  size_t inserted() const { return inserted_; }
  // Largest point count in one leaf, overflow included (O(nodes); a
  // balance diagnostic for tests and benches).
  size_t MaxLeafSize() const;

  // Merges the exact top-k neighbors of `q` (d values) among the covered
  // points into `heap`, a max-heap ordered by NeighborLess (see
  // PushNeighborHeap). The heap may arrive pre-seeded with candidates from
  // elsewhere; pruning stays exact. Leaf scans cover each leaf's overflow.
  // `alive`, when non-null, is a bitmap indexed by id: points with
  // alive[id] == 0 are skipped as if absent (the dynamic index's
  // tombstones) — skipping only shrinks the candidate set, so pruning
  // stays exact.
  void Search(const double* points, const double* q,
              const QueryOptions& options, std::vector<Neighbor>* heap,
              const uint8_t* alive = nullptr) const;

  // Appends every covered point whose Formula 1 distance to `q` is <= r
  // (ties INCLUDED — the admission-bound filter needs equidistant points,
  // whose (distance, slot) tie-break can still displace) to `out`, in
  // tree-traversal order. Same plane-pruning bound as Search, with the
  // same conservative epsilon, so a point exactly on the radius is never
  // pruned. `alive` filters like Search.
  void RangeSearch(const double* points, const double* q, double r,
                   std::vector<Neighbor>* out,
                   const uint8_t* alive = nullptr) const;

 private:
  struct Node {
    int axis = -1;          // split dimension
    double split = 0.0;     // split coordinate
    size_t begin = 0;       // leaf: range into order_
    size_t end = 0;
    int left = -1;          // children as indices into nodes_
    int right = -1;
    std::vector<size_t> overflow;  // leaf: ids filed by Insert since Build
    bool IsLeaf() const { return left < 0; }
  };

  static constexpr size_t kLeafSize = 16;

  int BuildRange(const double* points, size_t begin, size_t end, int depth);
  void SearchNode(int node_id, const double* points, const double* q,
                  const QueryOptions& options, std::vector<Neighbor>* heap,
                  const uint8_t* alive) const;
  void RangeNode(int node_id, const double* points, const double* q,
                 double r, std::vector<Neighbor>* out,
                 const uint8_t* alive) const;

  size_t n_ = 0;
  size_t d_ = 0;
  size_t built_ = 0;
  size_t inserted_ = 0;
  std::vector<size_t> order_;  // point ids, permuted by Build
  std::vector<Node> nodes_;
  int root_ = -1;
};

// NeighborIndex over a frozen table, tree-accelerated. Same contract and
// bit-identical results as BruteForceIndex; used for the large-n
// scalability experiments (SN with 100k tuples).
class KdTreeIndex final : public NeighborIndex {
 public:
  KdTreeIndex(const data::Table* table, std::vector<int> cols);

  std::vector<Neighbor> Query(const data::RowView& query,
                              const QueryOptions& options) const override;
  // Falls back to a full scan: a sorted list of *all* points cannot beat
  // O(n log n) anyway.
  std::vector<Neighbor> QueryAll(const data::RowView& query,
                                 size_t exclude) const override;
  size_t size() const override { return tree_.size(); }

 private:
  std::vector<int> cols_;
  std::vector<double> points_;  // row-major size() x cols_.size()
  FlatKdTree tree_;
};

// Picks KdTree for large tables, brute force otherwise.
std::unique_ptr<NeighborIndex> MakeIndex(const data::Table* table,
                                         std::vector<int> cols,
                                         size_t kdtree_threshold = 4096);

}  // namespace iim::neighbors

#endif  // IIM_NEIGHBORS_KDTREE_H_
