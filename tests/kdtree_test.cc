#include "neighbors/kdtree.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "neighbors/distance.h"
#include "neighbors/knn.h"

namespace iim::neighbors {
namespace {

data::Table RandomTable(size_t n, size_t m, Rng* rng, bool with_ties) {
  data::Table t(data::Schema::Default(m), n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      double v = rng->Uniform(-10, 10);
      // Quantize to force duplicate coordinates / distance ties.
      if (with_ties) v = std::round(v);
      t.Set(i, j, v);
    }
  }
  return t;
}

// (n, dims, k, with_ties)
using Param = std::tuple<size_t, size_t, size_t, bool>;

class KdTreeAgreementTest : public ::testing::TestWithParam<Param> {};

TEST_P(KdTreeAgreementTest, MatchesBruteForceExactly) {
  auto [n, dims, k, ties] = GetParam();
  Rng rng(1000 * n + 10 * dims + k + (ties ? 1 : 0));
  data::Table t = RandomTable(n, dims, &rng, ties);
  std::vector<int> cols;
  for (size_t j = 0; j < dims; ++j) cols.push_back(static_cast<int>(j));

  BruteForceIndex brute(&t, cols);
  KdTreeIndex tree(&t, cols);

  data::Table queries = RandomTable(25, dims, &rng, ties);
  QueryOptions opt;
  opt.k = k;
  for (size_t q = 0; q < queries.NumRows(); ++q) {
    auto expect = brute.Query(queries.Row(q), opt);
    auto got = tree.Query(queries.Row(q), opt);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, expect[i].index) << "query " << q << " pos "
                                               << i;
      EXPECT_NEAR(got[i].distance, expect[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdTreeAgreementTest,
    ::testing::Values(Param{50, 1, 3, false}, Param{200, 2, 5, false},
                      Param{500, 3, 10, false}, Param{300, 5, 7, false},
                      Param{100, 2, 100, false},  // k == n
                      Param{250, 2, 5, true},     // heavy ties
                      Param{400, 1, 9, true}));

TEST(KdTreeTest, ExcludeHonored) {
  Rng rng(4);
  data::Table t = RandomTable(100, 2, &rng, false);
  KdTreeIndex tree(&t, {0, 1});
  QueryOptions opt;
  opt.k = 5;
  opt.exclude = 17;
  for (const auto& nb : tree.Query(t.Row(17), opt)) {
    EXPECT_NE(nb.index, 17u);
  }
}

TEST(KdTreeTest, QueryAllMatchesBruteForce) {
  Rng rng(6);
  data::Table t = RandomTable(60, 2, &rng, false);
  KdTreeIndex tree(&t, {0, 1});
  BruteForceIndex brute(&t, {0, 1});
  auto a = tree.QueryAll(t.Row(3), 3);
  auto b = brute.QueryAll(t.Row(3), 3);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
  }
}

TEST(KdTreeTest, ZeroKReturnsEmpty) {
  Rng rng(8);
  data::Table t = RandomTable(10, 2, &rng, false);
  KdTreeIndex tree(&t, {0, 1});
  QueryOptions opt;
  opt.k = 0;
  EXPECT_TRUE(tree.Query(t.Row(0), opt).empty());
}

TEST(MakeIndexTest, PicksImplementationBySize) {
  Rng rng(10);
  data::Table small = RandomTable(10, 2, &rng, false);
  data::Table large = RandomTable(100, 2, &rng, false);
  auto idx_small = MakeIndex(&small, {0, 1}, /*kdtree_threshold=*/50);
  auto idx_large = MakeIndex(&large, {0, 1}, /*kdtree_threshold=*/50);
  EXPECT_NE(dynamic_cast<BruteForceIndex*>(idx_small.get()), nullptr);
  EXPECT_NE(dynamic_cast<KdTreeIndex*>(idx_large.get()), nullptr);
  EXPECT_EQ(idx_small->size(), 10u);
  EXPECT_EQ(idx_large->size(), 100u);
}

// ---------------------------------------------------------------------------
// FlatKdTree::Insert / Remap — the dynamic index's leaf-insert model.

// Exact reference over the ids in `ids`: top-k by (distance, id) and the
// radius set ascending by id, from the same Formula 1 kernel.
struct Reference {
  std::vector<Neighbor> nearest;
  std::vector<Neighbor> in_range;
};

Reference BruteReference(const std::vector<double>& points, size_t d,
                         const std::vector<size_t>& ids, const double* q,
                         size_t k, size_t exclude, double r) {
  Reference ref;
  std::vector<Neighbor> all;
  for (size_t id : ids) {
    double dist = NormalizedEuclidean(q, points.data() + id * d, d);
    if (dist <= r) ref.in_range.push_back(Neighbor{id, dist});
    if (id != exclude) all.push_back(Neighbor{id, dist});
  }
  std::sort(all.begin(), all.end(), NeighborLess);
  all.resize(std::min(all.size(), k));
  ref.nearest = all;
  std::sort(ref.in_range.begin(), ref.in_range.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.index < b.index;
            });
  return ref;
}

void ExpectTreeMatches(const FlatKdTree& tree,
                       const std::vector<double>& points, size_t d,
                       const std::vector<size_t>& ids, const double* q,
                       size_t k, size_t exclude, double r,
                       const std::string& where) {
  Reference ref = BruteReference(points, d, ids, q, k, exclude, r);
  QueryOptions opt;
  opt.k = k;
  opt.exclude = exclude;
  std::vector<Neighbor> heap;
  tree.Search(points.data(), q, opt, &heap);
  std::sort(heap.begin(), heap.end(), NeighborLess);
  ASSERT_EQ(heap.size(), ref.nearest.size()) << where;
  for (size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap[i].index, ref.nearest[i].index) << where << " pos " << i;
    EXPECT_EQ(heap[i].distance, ref.nearest[i].distance) << where;
  }
  std::vector<Neighbor> range;
  tree.RangeSearch(points.data(), q, r, &range);
  std::sort(range.begin(), range.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.index < b.index;
            });
  ASSERT_EQ(range.size(), ref.in_range.size()) << where;
  for (size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(range[i].index, ref.in_range[i].index) << where;
    EXPECT_EQ(range[i].distance, ref.in_range[i].distance) << where;
  }
}

// Inserted points — many exactly on a split value (integer grid, so
// coordinates repeat constantly) and exact duplicates of built points —
// are found by Search and RangeSearch bit for bit, with `exclude`
// honored whether the excluded id sits in a built range or an overflow.
TEST(FlatKdTreeInsertTest, InsertedPointsMatchBruteForceExactly) {
  const size_t d = 2;
  Rng rng(21);
  std::vector<double> points;
  auto add = [&](double x, double y) {
    points.push_back(x);
    points.push_back(y);
    return points.size() / d - 1;
  };
  for (size_t i = 0; i < 200; ++i) {
    add(std::round(rng.Uniform(-6, 6)), std::round(rng.Uniform(-6, 6)));
  }
  FlatKdTree tree;
  tree.Build(points.data(), 200, d);
  std::vector<size_t> ids;
  for (size_t i = 0; i < 200; ++i) ids.push_back(i);
  EXPECT_EQ(tree.built(), 200u);
  EXPECT_EQ(tree.inserted(), 0u);

  for (size_t step = 0; step < 300; ++step) {
    size_t src = step % 200;
    size_t id = step % 3 == 0
                    // An exact duplicate of an earlier point.
                    ? add(points[src * d], points[src * d + 1])
                    : add(std::round(rng.Uniform(-7, 7)),
                          std::round(rng.Uniform(-7, 7)));
    tree.Insert(points.data(), id);
    ids.push_back(id);
    ASSERT_EQ(tree.size(), ids.size());
    double q[2] = {std::round(rng.Uniform(-7, 7)),
                   std::round(rng.Uniform(-7, 7))};
    size_t k = 1 + step % 12;
    // Alternate exclusions between a built id and a fresh overflow id.
    size_t exclude = step % 2 == 0 ? step % 200 : id;
    ExpectTreeMatches(tree, points, d, ids, q, k, exclude,
                      rng.Uniform(0.0, 3.0), "step " + std::to_string(step));
    // Radius exactly at an inserted point's distance: ties included.
    double r = NormalizedEuclidean(q, points.data() + id * d, d);
    ExpectTreeMatches(tree, points, d, ids, q, k,
                      QueryOptions::kNoExclusion, r, "tie radius");
  }
  EXPECT_EQ(tree.built(), 200u);
  EXPECT_EQ(tree.inserted(), 300u);
  EXPECT_GT(tree.MaxLeafSize(), 16u);  // inserts pile into overflow
}

// Remap renumbers built and overflow ids through a compaction's map,
// drops evicted ids, keeps the insert count, and leaves a tree that
// answers exactly over the compacted buffer — including when one whole
// leaf is emptied and later receives new inserts again.
TEST(FlatKdTreeRemapTest, RenumbersDropsAndEmptiesWholeLeaf) {
  // 1-D points 0..31: the root splits at 16, leaving two 16-point
  // leaves, [0, 15] and [16, 31].
  const size_t d = 1;
  std::vector<double> points;
  for (size_t i = 0; i < 32; ++i) points.push_back(static_cast<double>(i));
  FlatKdTree tree;
  tree.Build(points.data(), 32, d);
  EXPECT_EQ(tree.MaxLeafSize(), 16u);
  // Overflow on both sides, one of them exactly on the split value.
  for (double v : {16.0, 3.5, 40.0}) {
    points.push_back(v);
    tree.Insert(points.data(), points.size() - 1);
  }
  ASSERT_EQ(tree.size(), 35u);
  ASSERT_EQ(tree.inserted(), 3u);
  std::vector<size_t> all_ids;
  for (size_t i = 0; i < points.size(); ++i) all_ids.push_back(i);
  for (double qv : {15.0, 16.0, 17.0}) {
    ExpectTreeMatches(tree, points, d, all_ids, &qv, 3,
                      QueryOptions::kNoExclusion, 1.0, "on-split insert");
  }

  // Evict every point <= 16: the whole left leaf — its built range and
  // its overflow (3.5, and 16.0, which "<= split goes left" filed there)
  // — plus the built 16 from the right leaf.
  std::vector<size_t> remap(points.size(), FlatKdTree::kDropped);
  std::vector<double> compacted;
  std::vector<size_t> ids;
  for (size_t old = 0; old < points.size(); ++old) {
    if (points[old] <= 16.0) continue;
    remap[old] = compacted.size();
    ids.push_back(compacted.size());
    compacted.push_back(points[old]);
  }
  tree.Remap(remap);
  EXPECT_EQ(tree.size(), ids.size());
  EXPECT_EQ(tree.built(), 32u);    // renumbering does not restore balance
  EXPECT_EQ(tree.inserted(), 3u);  // ... nor reset the rebuild cadence
  EXPECT_EQ(tree.MaxLeafSize(), 16u);  // right leaf: 17..31 + 40.0
  for (double qv : {0.0, 15.0, 16.0, 16.5, 29.0, 45.0}) {
    for (size_t k : {size_t{1}, size_t{4}, size_t{30}}) {
      ExpectTreeMatches(tree, compacted, d, ids, &qv, k,
                        QueryOptions::kNoExclusion, 2.0,
                        "after remap q=" + std::to_string(qv));
    }
  }

  // The emptied leaf still routes new inserts, and finds them.
  compacted.push_back(2.0);
  tree.Insert(compacted.data(), compacted.size() - 1);
  ids.push_back(compacted.size() - 1);
  double q = 0.0;
  ExpectTreeMatches(tree, compacted, d, ids, &q, 3, 0, 20.0,
                    "insert into emptied leaf");
  EXPECT_EQ(tree.inserted(), 4u);

  // Build resets the cadence counters.
  tree.Build(compacted.data(), compacted.size(), d);
  EXPECT_EQ(tree.inserted(), 0u);
  EXPECT_EQ(tree.built(), compacted.size());
}

TEST(FlatKdTreeRemapTest, DroppingEveryPointClearsTheTree) {
  const size_t d = 2;
  Rng rng(5);
  std::vector<double> points;
  for (size_t i = 0; i < 2 * 41; ++i) points.push_back(rng.Uniform(0, 1));
  FlatKdTree tree;
  tree.Build(points.data(), 40, d);
  tree.Insert(points.data(), 40);
  std::vector<size_t> remap(41, FlatKdTree::kDropped);
  tree.Remap(remap);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  std::vector<Neighbor> heap;
  QueryOptions opt;
  opt.k = 3;
  tree.Search(points.data(), points.data(), opt, &heap);
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace iim::neighbors
