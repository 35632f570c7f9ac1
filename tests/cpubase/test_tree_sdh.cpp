#include "cpubase/tree_sdh.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "common/datagen.hpp"
#include "common/error.hpp"

namespace tbs::cpubase {
namespace {

Histogram brute(const PointsSoA& pts, double w, std::size_t buckets) {
  Histogram h(w, buckets);
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j)
      h.add(dist(pts[i], pts[j]));
  return h;
}

// gtest has no printer for TreeCase, so it names each case by the struct's
// raw bytes. `name_tail` zeroes what was trailing padding, which would
// otherwise put stack bytes into the names.
struct TreeCase {
  std::size_t n;
  std::size_t buckets;
  int leaf;
  std::array<std::uint8_t, 4> name_tail{};
};
static_assert(std::has_unique_object_representations_v<TreeCase>,
              "padding would put stack bytes into the test names");

class TreeSdhParam : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeSdhParam, ExactlyMatchesBruteForceUniform) {
  const auto [n, buckets, leaf, name_tail] = GetParam();
  const auto pts = uniform_box(n, 20.0f, 501 + n);
  const double w = pts.max_possible_distance() / buckets + 1e-4;
  EXPECT_EQ(tree_sdh(pts, w, buckets, leaf), brute(pts, w, buckets));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeSdhParam,
    ::testing::Values(TreeCase{100, 8, 4}, TreeCase{500, 16, 16},
                      TreeCase{1000, 4, 32}, TreeCase{2000, 64, 8},
                      TreeCase{1500, 1, 16},   // single bucket
                      TreeCase{777, 33, 1}));  // leaf = 1

TEST(TreeSdh, ExactOnClusteredData) {
  const auto pts = gaussian_clusters(1200, 5, 30.0f, 1.0f, 502);
  const double w = 1.0;
  EXPECT_EQ(tree_sdh(pts, w, 60, 16), brute(pts, w, 60));
}

TEST(TreeSdh, ExactOnLattice) {
  const auto pts = jittered_lattice(1000, 10.0f, 0.01f, 503);
  const double w = 0.5;
  EXPECT_EQ(tree_sdh(pts, w, 40, 8), brute(pts, w, 40));
}

TEST(TreeSdh, ExactWithDuplicatePoints) {
  PointsSoA pts;
  for (int i = 0; i < 100; ++i) pts.push_back({1.0f, 2.0f, 3.0f});
  for (int i = 0; i < 50; ++i) pts.push_back({5.0f, 2.0f, 3.0f});
  const auto h = tree_sdh(pts, 1.0, 8, 4);
  EXPECT_EQ(h[0], 100u * 99 / 2 + 50u * 49 / 2);  // zero-distance pairs
  EXPECT_EQ(h[4], 100u * 50u);                    // the 4.0 separations
}

TEST(TreeSdh, BulkResolutionDominatesForCoarseBuckets) {
  // Few buckets + fine leaves => most point pairs resolve in bulk at the
  // node level; the whole point of the O(N^1.5) algorithm. (Resolution
  // needs the leaf AABB spread to be well under the bucket width, hence
  // the small leaf size.)
  const auto pts = uniform_box(4000, 20.0f, 504);
  const double w = pts.max_possible_distance() / 4 + 1e-4;
  TreeSdhStats stats;
  (void)tree_sdh(pts, w, 4, /*leaf_size=*/2, &stats);
  const std::uint64_t total = 4000ull * 3999 / 2;
  EXPECT_EQ(stats.resolved_pairs + stats.brute_pairs, total);
  EXPECT_GT(stats.resolved_pairs, total / 2)
      << "bulk-resolved " << stats.resolved_pairs << " of " << total;
}

TEST(TreeSdh, FineBucketsForceMoreBruteWork) {
  const auto pts = uniform_box(2000, 20.0f, 505);
  const double w4 = pts.max_possible_distance() / 4 + 1e-4;
  const double w512 = pts.max_possible_distance() / 512 + 1e-4;
  TreeSdhStats coarse, fine;
  (void)tree_sdh(pts, w4, 4, 16, &coarse);
  (void)tree_sdh(pts, w512, 512, 16, &fine);
  EXPECT_GT(fine.brute_pairs, coarse.brute_pairs);
}

TEST(TreeSdh, SubquadraticWorkGrowth) {
  // Growing N 4x would grow quadratic work 16x; the tree's total work
  // (node-pair visits + brute pairs) must grow distinctly slower. The
  // asymptotic O(N^{3/2}) regime needs leaves much finer than the bucket
  // width, which improves as N grows in a fixed box — at this scale we
  // measure an effective exponent around 1.7 (ratio ~11 vs 16).
  const double w = 8.0;
  TreeSdhStats s1, s2;
  (void)tree_sdh(uniform_box(2000, 20.0f, 506), w, 5, /*leaf=*/2, &s1);
  (void)tree_sdh(uniform_box(8000, 20.0f, 506), w, 5, /*leaf=*/2, &s2);
  const double work1 =
      static_cast<double>(s1.node_pair_visits + s1.brute_pairs);
  const double work2 =
      static_cast<double>(s2.node_pair_visits + s2.brute_pairs);
  EXPECT_LT(work2 / work1, 13.0);
  // And the bulk-resolved fraction improves with N (asymptotic trend).
  const double total1 = 2000.0 * 1999 / 2;
  const double total2 = 8000.0 * 7999 / 2;
  EXPECT_GT(static_cast<double>(s2.resolved_pairs) / total2,
            static_cast<double>(s1.resolved_pairs) / total1);
}

TEST(TreeSdh, Validation) {
  PointsSoA empty;
  EXPECT_THROW((void)tree_sdh(empty, 1.0, 4), CheckError);
  const auto pts = uniform_box(10, 1.0f, 507);
  EXPECT_THROW((void)tree_sdh(pts, 1.0, 4, 0), CheckError);
}

}  // namespace
}  // namespace tbs::cpubase
