#include "neighbors/kdtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "neighbors/distance.h"

namespace iim::neighbors {

void FlatKdTree::Clear() {
  n_ = 0;
  d_ = 0;
  built_ = 0;
  inserted_ = 0;
  order_.clear();
  nodes_.clear();
  root_ = -1;
}

void FlatKdTree::Build(const double* points, size_t n, size_t d) {
  Clear();
  n_ = n;
  d_ = d;
  built_ = n;
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  nodes_.reserve(n / kLeafSize * 2 + 1);
  if (n > 0) root_ = BuildRange(points, 0, n, 0);
}

int FlatKdTree::BuildRange(const double* points, size_t begin, size_t end,
                           int depth) {
  Node node;
  if (end - begin <= kLeafSize) {
    node.begin = begin;
    node.end = end;
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }
  // Split on the axis with the largest spread in this range.
  int best_axis = depth % static_cast<int>(d_);
  double best_spread = -1.0;
  for (size_t d = 0; d < d_; ++d) {
    double lo = points[order_[begin] * d_ + d], hi = lo;
    for (size_t i = begin + 1; i < end; ++i) {
      double v = points[order_[i] * d_ + d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_axis = static_cast<int>(d);
    }
  }
  size_t mid = begin + (end - begin) / 2;
  size_t axis = static_cast<size_t>(best_axis);
  std::nth_element(order_.begin() + static_cast<long>(begin),
                   order_.begin() + static_cast<long>(mid),
                   order_.begin() + static_cast<long>(end),
                   [points, this, axis](size_t a, size_t b) {
                     return points[a * d_ + axis] < points[b * d_ + axis];
                   });
  node.axis = best_axis;
  node.split = points[order_[mid] * d_ + axis];
  nodes_.push_back(node);
  int id = static_cast<int>(nodes_.size() - 1);
  int left = BuildRange(points, begin, mid, depth + 1);
  int right = BuildRange(points, mid, end, depth + 1);
  nodes_[static_cast<size_t>(id)].left = left;
  nodes_[static_cast<size_t>(id)].right = right;
  return id;
}

void FlatKdTree::Insert(const double* points, size_t id) {
  assert(root_ >= 0);
  const double* p = points + id * d_;
  size_t node_id = static_cast<size_t>(root_);
  while (!nodes_[node_id].IsLeaf()) {
    const Node& node = nodes_[node_id];
    // "<= split goes left" keeps both plane bounds exact (see the class
    // comment): Build leaves values equal to the split on either side.
    node_id = static_cast<size_t>(
        p[static_cast<size_t>(node.axis)] <= node.split ? node.left
                                                        : node.right);
  }
  nodes_[node_id].overflow.push_back(id);
  ++n_;
  ++inserted_;
}

void FlatKdTree::Remap(const std::vector<size_t>& remap) {
  // Leaves are rewritten one after another into a fresh order_, each
  // taking its surviving built ids then its surviving overflow — the
  // ranges stay disjoint, so the planes above them need no change.
  std::vector<size_t> order;
  order.reserve(n_);
  for (Node& node : nodes_) {
    if (!node.IsLeaf()) continue;
    size_t begin = order.size();
    auto keep = [&](size_t id) {
      assert(id < remap.size());
      if (remap[id] != kDropped) order.push_back(remap[id]);
    };
    for (size_t i = node.begin; i < node.end; ++i) keep(order_[i]);
    for (size_t id : node.overflow) keep(id);
    node.begin = begin;
    node.end = order.size();
    node.overflow.clear();
  }
  order_.swap(order);
  n_ = order_.size();
  if (n_ == 0) Clear();
}

size_t FlatKdTree::MaxLeafSize() const {
  size_t most = 0;
  for (const Node& node : nodes_) {
    if (node.IsLeaf()) {
      most = std::max(most, node.end - node.begin + node.overflow.size());
    }
  }
  return most;
}

void FlatKdTree::SearchNode(int node_id, const double* points,
                            const double* q, const QueryOptions& options,
                            std::vector<Neighbor>* heap,
                            const uint8_t* alive) const {
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  if (node.IsLeaf()) {
    auto visit = [&](size_t row) {
      if (row == options.exclude) return;
      if (alive != nullptr && alive[row] == 0) return;
      PushNeighborHeap(
          heap, options.k,
          Neighbor{row, NormalizedEuclidean(q, points + row * d_, d_)});
    };
    for (size_t i = node.begin; i < node.end; ++i) visit(order_[i]);
    for (size_t row : node.overflow) visit(row);
    return;
  }
  double delta = q[static_cast<size_t>(node.axis)] - node.split;
  int near = delta <= 0.0 ? node.left : node.right;
  int far = delta <= 0.0 ? node.right : node.left;
  SearchNode(near, points, q, options, heap, alive);
  // The normalized distance from q to the splitting plane is
  // |delta| / sqrt(|F|). Visit the far side unless the plane is strictly
  // farther than the current worst neighbor; equality keeps ties exact.
  if (heap->size() < options.k) {
    SearchNode(far, points, q, options, heap, alive);
  } else {
    double worst = heap->front().distance;
    // Conservative slack: squaring `worst` can round below the true
    // worst^2, which on exact distance ties would prune a subtree holding
    // an equidistant smaller-index neighbor. The relative epsilon makes
    // the bound err toward visiting.
    double bound = worst * worst * static_cast<double>(d_);
    if (delta * delta <= bound + bound * 1e-12) {
      SearchNode(far, points, q, options, heap, alive);
    }
  }
}

void FlatKdTree::Search(const double* points, const double* q,
                        const QueryOptions& options,
                        std::vector<Neighbor>* heap,
                        const uint8_t* alive) const {
  if (root_ < 0 || options.k == 0) return;
  SearchNode(root_, points, q, options, heap, alive);
}

void FlatKdTree::RangeNode(int node_id, const double* points,
                           const double* q, double r,
                           std::vector<Neighbor>* out,
                           const uint8_t* alive) const {
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  if (node.IsLeaf()) {
    auto visit = [&](size_t row) {
      if (alive != nullptr && alive[row] == 0) return;
      double dist = NormalizedEuclidean(q, points + row * d_, d_);
      if (dist <= r) out->push_back(Neighbor{row, dist});
    };
    for (size_t i = node.begin; i < node.end; ++i) visit(order_[i]);
    for (size_t row : node.overflow) visit(row);
    return;
  }
  double delta = q[static_cast<size_t>(node.axis)] - node.split;
  int near = delta <= 0.0 ? node.left : node.right;
  int far = delta <= 0.0 ? node.right : node.left;
  RangeNode(near, points, q, r, out, alive);
  // A far-side point within radius r needs |delta| / sqrt(|F|) <= r; the
  // same relative slack as SearchNode keeps a rounded-down r^2 * |F| from
  // pruning a point sitting exactly on the radius.
  double bound = r * r * static_cast<double>(d_);
  if (delta * delta <= bound + bound * 1e-12) {
    RangeNode(far, points, q, r, out, alive);
  }
}

void FlatKdTree::RangeSearch(const double* points, const double* q,
                             double r, std::vector<Neighbor>* out,
                             const uint8_t* alive) const {
  if (root_ < 0 || r < 0.0) return;
  RangeNode(root_, points, q, r, out, alive);
}

KdTreeIndex::KdTreeIndex(const data::Table* table, std::vector<int> cols)
    : cols_(std::move(cols)) {
  // Points are stored unscaled and leaf distances are computed with the
  // exact NormalizedEuclidean used by BruteForceIndex, so the two indexes
  // produce bitwise-identical results (including distance ties).
  size_t n = table->NumRows();
  size_t d = cols_.size();
  points_.resize(n * d);
  for (size_t i = 0; i < n; ++i) {
    data::RowView row = table->Row(i);
    for (size_t j = 0; j < d; ++j) {
      points_[i * d + j] = row[static_cast<size_t>(cols_[j])];
    }
  }
  tree_.Build(points_.data(), n, d);
}

std::vector<Neighbor> KdTreeIndex::Query(const data::RowView& query,
                                         const QueryOptions& options) const {
  std::vector<Neighbor> heap;
  if (tree_.empty() || options.k == 0) return heap;
  heap.reserve(options.k);
  std::vector<double> q = query.Gather(cols_);
  tree_.Search(points_.data(), q.data(), options, &heap);
  std::sort(heap.begin(), heap.end(), NeighborLess);
  return heap;
}

std::vector<Neighbor> KdTreeIndex::QueryAll(const data::RowView& query,
                                            size_t exclude) const {
  std::vector<double> q = query.Gather(cols_);
  size_t n = tree_.size();
  size_t d = cols_.size();
  std::vector<Neighbor> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    out.push_back(
        Neighbor{i, NormalizedEuclidean(q.data(), points_.data() + i * d, d)});
  }
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

std::unique_ptr<NeighborIndex> MakeIndex(const data::Table* table,
                                         std::vector<int> cols,
                                         size_t kdtree_threshold) {
  if (table->NumRows() >= kdtree_threshold) {
    return std::make_unique<KdTreeIndex>(table, std::move(cols));
  }
  return std::make_unique<BruteForceIndex>(table, std::move(cols));
}

}  // namespace iim::neighbors
