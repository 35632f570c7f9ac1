#include "cpubase/cpu_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/datagen.hpp"
#include "cpubase/cell_grid.hpp"

namespace tbs::cpubase {
namespace {

/// Brute-force single-threaded references, written independently of the
/// library code under test.
Histogram brute_sdh(const PointsSoA& pts, double w, std::size_t buckets) {
  Histogram h(w, buckets);
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j)
      h.add(dist(pts[i], pts[j]));
  return h;
}

TEST(CpuSdh, MatchesBruteForce) {
  const auto pts = uniform_box(600, 10.0f, 555);
  ThreadPool pool(4);
  const auto got = cpu_sdh(pool, pts, 0.4, 50);
  EXPECT_EQ(got, brute_sdh(pts, 0.4, 50));
  // The tiled loop spreads its updates over several private copies per
  // worker; few buckets make consecutive pairs share counters.
  for (const std::size_t buckets : {64u, 256u}) {
    const double w = pts.max_possible_distance() / buckets + 1e-4;
    EXPECT_EQ(cpu_sdh_tiled(pool, pts, w, buckets),
              brute_sdh(pts, w, buckets))
        << buckets << " buckets";
  }
}

TEST(CpuSdh, TotalIsAllPairs) {
  const std::size_t n = 777;
  const auto pts = uniform_box(n, 10.0f, 556);
  ThreadPool pool(3);
  EXPECT_EQ(cpu_sdh(pool, pts, 1.0, 20).total(), n * (n - 1) / 2);
}

TEST(CpuPcf, MatchesBruteForce) {
  const auto pts = uniform_box(500, 8.0f, 558);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j)
      if (dist2(pts[i], pts[j]) < 4.0f) ++expected;
  ThreadPool pool(4);
  EXPECT_EQ(cpu_pcf(pool, pts, 2.0), expected);
}

TEST(CpuKnn, NearestOfLatticeIsSpacing) {
  const auto pts = jittered_lattice(216, 6.0f, 0.0f, 559);
  ThreadPool pool(2);
  const auto knn = cpu_knn(pool, pts, 1);
  for (const auto& row : knn) EXPECT_NEAR(row[0], 1.0f, 1e-5);
}

TEST(CpuKnn, ReturnsAscendingDistances) {
  const auto pts = uniform_box(200, 5.0f, 560);
  ThreadPool pool(2);
  const auto knn = cpu_knn(pool, pts, 4);
  for (const auto& row : knn) {
    ASSERT_EQ(row.size(), 4u);
    for (std::size_t j = 1; j < row.size(); ++j) EXPECT_LE(row[j - 1], row[j]);
  }
}

TEST(CpuKnn, RowsOwnExactlyKFloats) {
  // Each row is built from its k smallest distances, so it holds k floats
  // and no more: n rows of n-float capacity would make one result n^2.
  const auto pts = uniform_box(500, 5.0f, 561);
  ThreadPool pool(2);
  // Moved, never copied: a copy would trim every row's capacity.
  std::vector<std::vector<std::vector<float>>> results;
  results.push_back(cpu_knn(pool, pts, 3));
  results.push_back(cpu_knn_grid(pool, pts, 3));
  for (const auto& knn : results) {
    ASSERT_EQ(knn.size(), pts.size());
    for (const auto& row : knn) {
      EXPECT_EQ(row.size(), 3u);
      EXPECT_EQ(row.capacity(), 3u);
    }
  }
}

TEST(CpuKde, TwoPointSanity) {
  PointsSoA pts;
  pts.push_back({0, 0, 0});
  pts.push_back({1, 0, 0});
  ThreadPool pool(1);
  const auto f = cpu_kde(pool, pts, 1.0);
  const double expect = std::exp(-0.5);
  EXPECT_NEAR(f[0], expect, 1e-9);
  EXPECT_NEAR(f[1], expect, 1e-9);
}

TEST(CpuDistanceJoin, FindsExactPairs) {
  PointsSoA pts;
  pts.push_back({0, 0, 0});
  pts.push_back({0.5f, 0, 0});
  pts.push_back({10, 0, 0});
  pts.push_back({10.4f, 0, 0});
  ThreadPool pool(2);
  auto pairs = cpu_distance_join(pool, pts, 0.6);
  std::sort(pairs.begin(), pairs.end());
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(pairs[1], (std::pair<std::uint32_t, std::uint32_t>{2, 3}));
}

TEST(CpuGram, DiagonalIsOne) {
  const auto pts = uniform_box(64, 3.0f, 561);
  ThreadPool pool(2);
  const auto k = cpu_gram(pool, pts, 0.7);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_FLOAT_EQ(k[i * 64 + i], 1.0f);
}

TEST(CpuStats, PoolSizeOneMatchesPoolSizeMany) {
  const auto pts = uniform_box(400, 10.0f, 562);
  ThreadPool p1(1), p4(4);
  EXPECT_EQ(cpu_sdh(p1, pts, 0.5, 30), cpu_sdh(p4, pts, 0.5, 30));
  EXPECT_EQ(cpu_pcf(p1, pts, 1.5), cpu_pcf(p4, pts, 1.5));
}

}  // namespace
}  // namespace tbs::cpubase
