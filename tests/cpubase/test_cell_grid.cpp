// Exactness of the cell-grid kernels on hostile inputs: every grid kernel
// must return exactly what its brute-force peer returns (counts equal,
// pair sets equal, kNN rows equal), including pairs placed exactly at the
// radius test's threshold, duplicates, clusters, huge and tiny extents and
// large coordinate offsets, on pools of 1, 2 and 3 workers.
#include "cpubase/cell_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/datagen.hpp"
#include "common/rng.hpp"

namespace tbs::cpubase {
namespace {

using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

double all_pairs(const PointsSoA& pts) {
  const auto n = static_cast<double>(pts.size());
  return n * (n - 1.0) / 2.0;
}

Pairs sorted(Pairs p) {
  std::sort(p.begin(), p.end());
  return p;
}

/// PCF and join on the grid equal their brute peers on `pool`.
void expect_pair_kernels_exact(ThreadPool& pool, const PointsSoA& pts,
                               double radius) {
  EXPECT_EQ(cpu_pcf_grid(pool, pts, radius),
            cpu_pcf_tiled(pool, pts, radius));
  const Pairs got = sorted(cpu_distance_join_grid(pool, pts, radius));
  EXPECT_EQ(got, sorted(cpu_distance_join(pool, pts, radius)));
  for (const auto& [i, j] : got) EXPECT_LT(i, j);
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
}

/// kNN on the grid equals cpu_knn row for row, bit for bit.
void expect_knn_exact(ThreadPool& pool, const PointsSoA& pts, int k) {
  const auto got = cpu_knn_grid(pool, pts, k);
  const auto want = cpu_knn(pool, pts, k);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "row " << i;
}

/// A coordinate on the 2^-12 lattice: exact in float below 2^11, and the
/// difference of two such coordinates is exact too.
float lattice(Rng& rng, float box) {
  return std::floor(static_cast<float>(rng.uniform()) * box * 4096.0f) /
         4096.0f;
}

TEST(CellGrid, PairsExactlyAtTheRadiusAcrossCellBoundaries) {
  // A thin slab (64 x 64 x 2) keeps the grid bound by the radius, so
  // cells are barely wider than r. Every displacement v gives pairs whose
  // rounded dist2 is one value D at any lattice position; the anchors
  // sweep x in steps of 1/8, so pairs straddle every cell boundary. At
  // r_eq, float(r*r) == D and the pairs are out; at r_in, float(r*r) is
  // the next float above D and they are in.
  Rng rng(90);
  const std::vector<Point3> displacements = {
      {3.0f, 0.0f, 0.0f}, {1.5f, 2.5f, 0.75f}, {0.0f, -2.75f, 1.25f}};
  PointsSoA pts;
  for (int i = 0; i < 400; ++i)
    pts.push_back({lattice(rng, 64.0f), lattice(rng, 64.0f),
                   lattice(rng, 2.0f)});
  for (const Point3& v : displacements)
    for (float x = 0.0f; x < 60.0f; x += 0.125f) {
      const Point3 p{x, 4.0f + lattice(rng, 56.0f), lattice(rng, 0.5f)};
      pts.push_back(p);
      pts.push_back({p.x + v.x, p.y + v.y, p.z + v.z});
    }

  ThreadPool pool(3);
  for (const Point3& v : displacements) {
    const float d = dist2(Point3{}, v);
    const double r_eq = std::sqrt(static_cast<double>(d));
    const double r_in = std::sqrt(static_cast<double>(
        std::nextafter(d, std::numeric_limits<float>::infinity())));
    ASSERT_EQ(static_cast<float>(r_eq * r_eq), d);
    ASSERT_GT(static_cast<float>(r_in * r_in), d);
    for (const double r : {r_eq, r_in}) {
      SCOPED_TRACE(r);
      EXPECT_LT(pcf_grid_pairs(pts, r), all_pairs(pts) / 20);  // it prunes
      expect_pair_kernels_exact(pool, pts, r);
    }
    // The constructed pairs really sit on the threshold: one float more
    // of radius admits at least every one of them.
    EXPECT_GE(cpu_pcf_grid(pool, pts, r_in) - cpu_pcf_grid(pool, pts, r_eq),
              480u);
  }
  expect_knn_exact(pool, pts, 4);
}

TEST(CellGrid, CountedPairsStraddleEveryCellBoundary) {
  // r = 1, so float(r*r) = 1 and, with enough points, the cells are barely
  // wider than 1. At each cell boundary b (the origin point pins the
  // grid's corner at 0), p sits one float below b and two partners follow
  // it along one axis: q_out exactly 1 away (dist2 == float(r*r), not
  // counted) and q_in one float closer (counted). q_in lands one cell past
  // p; a side narrower than the widest counted pair would put it two cells
  // past, and the grid would lose the pair.
  Rng rng(89);
  PointsSoA pts;
  pts.push_back({0.0f, 0.0f, 0.0f});
  pts.push_back({20.0f, 20.0f, 1.0f});
  for (int i = 0; i < 1000; ++i)
    pts.push_back({lattice(rng, 20.0f), lattice(rng, 20.0f),
                   lattice(rng, 1.0f)});
  const std::size_t background = pts.size();
  const double side = pair_grid_side(pts, 1.0);
  ASSERT_LT(side, 1.001);  // bound by the radius, not by the cell cap
  std::size_t spanning = 0;
  for (int c = 1; static_cast<double>(c) * side < 18.0; ++c) {
    // p is below b by less than one float step of its partner, on that
    // step's lattice, so p + 1 is exact.
    const double b = static_cast<double>(c) * side;
    const auto top = static_cast<float>(b + 1.0);
    const double step = std::nextafter(top, 64.0f) - top;
    double below = std::floor(b / step) * step;
    if (below >= b) below -= step;
    for (int row = 0; row < 10; ++row) {
      const float across = 1.0f + 1.9f * static_cast<float>(row);
      for (const bool along_x : {true, false}) {
        const auto at = static_cast<float>(below);
        const Point3 p = along_x ? Point3{at, across, 0.5f}
                                 : Point3{across, at, 0.5f};
        Point3 q_out = p;
        (along_x ? q_out.x : q_out.y) += 1.0f;
        Point3 q_in = q_out;
        float& moved = along_x ? q_in.x : q_in.y;
        moved = std::nextafter(moved, 0.0f);
        ASSERT_EQ(dist2(p, q_out), 1.0f);
        ASSERT_LT(dist2(p, q_in), 1.0f);
        spanning += static_cast<double>(moved) >= b ? 1 : 0;
        pts.push_back(p);
        pts.push_back(q_out);
        pts.push_back(q_in);
      }
    }
  }
  ASSERT_EQ(pair_grid_side(pts, 1.0), side);  // the new points kept the grid
  EXPECT_EQ(spanning, (pts.size() - background) / 3);
  ThreadPool pool(3);
  expect_pair_kernels_exact(pool, pts, 1.0);
  EXPECT_GE(cpu_pcf_grid(pool, pts, 1.0), (pts.size() - background) / 3);
}

TEST(CellGrid, DuplicatesAndIdenticalPoints) {
  const PointsSoA base = uniform_box(600, 10.0f, 91);
  PointsSoA dup;
  for (int copy = 0; copy < 3; ++copy)
    for (std::size_t i = 0; i < base.size(); ++i) dup.push_back(base[i]);
  ThreadPool pool(2);
  EXPECT_LT(pcf_grid_pairs(dup, 0.5), all_pairs(dup));
  expect_pair_kernels_exact(pool, dup, 0.5);
  expect_knn_exact(pool, dup, 3);  // two neighbours at distance 0

  // Zero extent: one cell, so the kernels run their brute peers.
  PointsSoA same;
  for (int i = 0; i < 300; ++i) same.push_back({1.5f, -2.0f, 7.0f});
  EXPECT_EQ(pcf_grid_pairs(same, 0.5), all_pairs(same));
  expect_pair_kernels_exact(pool, same, 0.5);
  EXPECT_EQ(cpu_pcf_grid(pool, same, 0.5), 300u * 299u / 2u);
  expect_knn_exact(pool, same, 5);
}

TEST(CellGrid, ClusteredData) {
  const PointsSoA pts = gaussian_clusters(3000, 5, 50.0f, 0.5f, 92);
  ThreadPool pool(3);
  for (const double r : {0.05, 0.3, 1.0}) {
    SCOPED_TRACE(r);
    expect_pair_kernels_exact(pool, pts, r);
  }
  for (const int k : {1, 4, 9}) expect_knn_exact(pool, pts, k);
}

TEST(CellGrid, RadiusLargerThanTheExtent) {
  const PointsSoA pts = uniform_box(500, 5.0f, 93);
  ThreadPool pool(2);
  EXPECT_EQ(pcf_grid_pairs(pts, 10.0), all_pairs(pts));  // cannot prune
  expect_pair_kernels_exact(pool, pts, 10.0);
  EXPECT_EQ(cpu_pcf_grid(pool, pts, 10.0), 500u * 499u / 2u);
}

TEST(CellGrid, TinyRadiusInAHugeExtentStaysBounded) {
  // min side ~1e-3 over a 1e7 box would be 1e30 cells; the grid holds at
  // most one cell per point. A few exact duplicates give pairs within r.
  PointsSoA pts = uniform_box(2000, 1.0e7f, 94);
  for (std::size_t i = 0; i < 20; ++i) pts.push_back(pts[i * 7]);
  ThreadPool pool(2);
  EXPECT_LT(pcf_grid_pairs(pts, 1e-3), all_pairs(pts) / 20);
  expect_pair_kernels_exact(pool, pts, 1e-3);
  EXPECT_EQ(cpu_pcf_grid(pool, pts, 1e-3), 20u);
  expect_knn_exact(pool, pts, 2);
}

TEST(CellGrid, CoordinatesOffsetByAMillion) {
  // At 1e6 floats are 1/16 apart, so many pairs tie exactly at r.
  PointsSoA pts = uniform_box(2500, 40.0f, 95);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point3 p = pts[i];
    pts.set(i, {p.x + 1.0e6f, p.y - 1.0e6f, p.z + 1.0e6f});
  }
  ThreadPool pool(3);
  for (const double r : {0.5, 1.0, 2.0}) {
    SCOPED_TRACE(r);
    EXPECT_LT(pcf_grid_pairs(pts, r), all_pairs(pts) / 10);
    expect_pair_kernels_exact(pool, pts, r);
  }
  expect_knn_exact(pool, pts, 6);
}

TEST(CellGrid, KnnWithOnlyKPlusOnePoints) {
  // Points on a line: the grid splits only x, and every point's k nearest
  // are all the others, so each search widens until it has seen the whole
  // grid.
  const int k = 100;
  PointsSoA pts;
  for (int i = 0; i <= k; ++i)
    pts.push_back({static_cast<float>(i) * 0.37f, 0.0f, 0.0f});
  ThreadPool pool(2);
  expect_knn_exact(pool, pts, k);
  expect_knn_exact(pool, uniform_box(5, 1.0f, 96), 4);
}

TEST(CellGrid, KnnWithTiedDistances) {
  // An exact lattice: every interior point has six neighbours at one
  // distance, twelve at the next.
  const PointsSoA pts = jittered_lattice(1728, 24.0f, 0.0f, 97);
  ThreadPool pool(3);
  for (const int k : {1, 6, 7, 18, 19}) expect_knn_exact(pool, pts, k);
  expect_pair_kernels_exact(pool, pts, 2.0);  // lattice spacing exactly 2
}

TEST(CellGrid, EveryPoolSizeAgrees) {
  const PointsSoA pts = uniform_box(4000, 60.0f, 98);
  for (const unsigned workers : {1u, 2u, 3u}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    EXPECT_EQ(cpu_pcf_grid(pool, pts, 2.0), cpu_pcf_tiled(pool, pts, 2.0));
    EXPECT_EQ(sorted(cpu_distance_join_grid(pool, pts, 2.0)),
              sorted(cpu_distance_join(pool, pts, 2.0)));
    EXPECT_EQ(cpu_knn_grid(pool, pts, 5), cpu_knn(pool, pts, 5));
  }
}

TEST(CellGrid, CandidatePairsAreFarFewerOnSparseData) {
  // The workload the grid exists for: 8000 points in an 80-box, r = 1.
  const PointsSoA pts = uniform_box(8000, 80.0f, 99);
  const double candidates = pcf_grid_pairs(pts, 1.0);
  EXPECT_GT(candidates, 0.0);
  EXPECT_LT(candidates, all_pairs(pts) / 50);
  EXPECT_EQ(pcf_grid_pairs(PointsSoA(1), 1.0), 0.0);
}

}  // namespace
}  // namespace tbs::cpubase
