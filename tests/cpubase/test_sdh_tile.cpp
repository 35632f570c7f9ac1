// Exactness of the SDH pair tile on hostile inputs: the AVX2 body and the
// portable body, called directly, and the served loops built on them
// (cpu_sdh_simd, cpu_sdh_cross) on pools of 1, 2 and 3 workers, must equal
// cpu_sdh (or a brute cross loop) bucket for bucket: distances exactly on
// bucket boundaries, every tail length, duplicates, zero extent, clusters,
// +1e6 offsets and a width at which every pair clamps.
#include "cpubase/sdh_tile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/datagen.hpp"
#include "cpubase/tree_sdh.hpp"
#include "kernels/distance.hpp"

namespace tbs::cpubase {
namespace {

struct Case {
  std::string name;
  PointsSoA pts;
  double width;
  int buckets;
};

PointsSoA shifted(PointsSoA pts, float by) {
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point3 p = pts[i];
    pts.set(i, {p.x + by, p.y + by, p.z + by});
  }
  return pts;
}

/// Points on a lattice of step `w` in x and y (plus a few z layers 0.1
/// apart): axis steps and 3-4-5 triangles put many distances at exact
/// multiples of `w`, so pairs sit exactly on bucket boundaries of width
/// `w`, w/2 and w/4. At width 0.1 the float distance and the double
/// division disagree about which side of a decimal boundary they fall;
/// 49/64 has an inexact reciprocal, and multiplying by it instead of
/// dividing puts k·(49/64) one bucket low for most k.
PointsSoA boundary_lattice(float w) {
  PointsSoA pts;
  for (int i = 0; i < 7; ++i)
    for (int j = 0; j < 5; ++j)
      for (int k = 0; k < 3; ++k)
        pts.push_back({w * static_cast<float>(i * 3),
                       w * static_cast<float>(j * 4),
                       0.1f * static_cast<float>(k)});
  return pts;
}

std::vector<Case> hostile_cases() {
  std::vector<Case> cases;
  const PointsSoA lattice = boundary_lattice(0.25f);
  for (const double w : {1.0, 0.5, 0.25, 0.1})
    cases.push_back({"boundary w=" + std::to_string(w), lattice, w, 40});
  cases.push_back(
      {"boundary w=49/64", boundary_lattice(0.765625f), 0.765625, 40});
  // Fine buckets: a one-ulp change in a float distance (a fused
  // multiply-add rounds once where the loops round twice) moves ~1e-3 of
  // the pairs it touches to a neighbouring bucket.
  cases.push_back({"fine buckets", uniform_box(600, 10.0f, 626), 0.00106,
                   16384});
  // Every tail length of the 8-wide step, and a run crossing a tile.
  for (std::size_t n = 1; n <= 17; ++n)
    cases.push_back({"n=" + std::to_string(n),
                     uniform_box(n, 10.0f, 600 + n), 0.5, 48});
  cases.push_back({"n=300", uniform_box(300, 10.0f, 620), 0.3, 64});
  PointsSoA dups;
  for (int r = 0; r < 40; ++r)
    for (const Point3& p : {Point3{1, 2, 3}, Point3{1, 2, 3.5f},
                            Point3{4, 0, 3}})
      dups.push_back(p);
  cases.push_back({"duplicates", dups, 0.5, 16});
  PointsSoA one_point;
  for (int r = 0; r < 33; ++r) one_point.push_back({2.5f, -1.0f, 7.0f});
  cases.push_back({"zero extent", one_point, 0.5, 16});
  cases.push_back({"clusters", gaussian_clusters(500, 4, 10.0f, 0.05f, 621),
                   0.01, 200});
  cases.push_back({"+1e6 offset",
                   shifted(uniform_box(300, 10.0f, 622), 1e6f), 0.25, 80});
  cases.push_back({"every pair clamps", uniform_box(200, 10.0f, 623), 1e-12,
                   64});
  cases.push_back({"one bucket", uniform_box(100, 10.0f, 624), 0.5, 1});
  return cases;
}

/// A histogram built by calling `body` once per anchor row, as the served
/// loops do: a triangular run (partners after the anchor) when `anchors`
/// is null, the full rectangle anchors x partners otherwise.
Histogram by_rows(SdhTileFn body, const PointsSoA& partners,
                  const PointsSoA* anchors, double width, int buckets) {
  const auto nb = static_cast<std::size_t>(buckets);
  std::vector<std::uint64_t> counts(kSdhCopies * nb, 0);
  const SdhCopies out{counts.data(), width, buckets};
  const std::size_t np = partners.size();
  const PointsSoA& rows = anchors != nullptr ? *anchors : partners;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t j0 = anchors != nullptr ? 0 : i + 1;
    if (j0 < np)
      body(rows[i], partners.x().data() + j0, partners.y().data() + j0,
           partners.z().data() + j0, np - j0, out);
  }
  Histogram h(width, nb);
  for (std::size_t b = 0; b < nb; ++b) {
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kSdhCopies; ++c) sum += counts[c * nb + b];
    h.set_count(b, sum);
  }
  return h;
}

/// Brute cross reference with the scalar loop's arithmetic.
Histogram brute_cross(const PointsSoA& a, const PointsSoA& b, double width,
                      int buckets) {
  Histogram h(width, static_cast<std::size_t>(buckets));
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) {
      const float dx = a[i].x - b[j].x;
      const float dy = a[i].y - b[j].y;
      const float dz = a[i].z - b[j].z;
      const auto bucket = static_cast<std::size_t>(bucket_index(
          std::sqrt(dx * dx + dy * dy + dz * dz), width, buckets));
      h.set_count(bucket, h[bucket] + 1);
    }
  return h;
}

void expect_body_exact(SdhTileFn body) {
  ThreadPool pool(1);
  for (const Case& c : hostile_cases()) {
    const auto nb = static_cast<std::size_t>(c.buckets);
    EXPECT_EQ(by_rows(body, c.pts, nullptr, c.width, c.buckets),
              cpu_sdh(pool, c.pts, c.width, nb))
        << c.name;
    // Rectangles: the case's points against a prefix of themselves.
    const std::size_t half = (c.pts.size() + 1) / 2;
    PointsSoA anchors;
    for (std::size_t i = 0; i < half; ++i) anchors.push_back(c.pts[i]);
    EXPECT_EQ(by_rows(body, c.pts, &anchors, c.width, c.buckets),
              brute_cross(anchors, c.pts, c.width, c.buckets))
        << c.name << " (cross)";
  }
}

TEST(SdhTile, PortableBodyMatchesCpuSdhOnHostileInputs) {
  expect_body_exact(sdh_tile_portable);
}

TEST(SdhTile, Avx2BodyMatchesCpuSdhOnHostileInputs) {
  const SdhTileFn avx2 = sdh_tile_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 on this build or host";
  expect_body_exact(avx2);
}

TEST(SdhTile, ProcessRunsTheAvx2BodyWhereThereIsOne) {
  const SdhTileFn avx2 = sdh_tile_avx2();
  EXPECT_EQ(sdh_tile(), avx2 != nullptr ? avx2 : sdh_tile_portable);
}

TEST(SdhTile, ServedLoopsMatchTheReferencesOnPoolsOfOneTwoThree) {
  for (const unsigned threads : {1u, 2u, 3u}) {
    ThreadPool pool(threads);
    for (const Case& c : hostile_cases()) {
      const auto nb = static_cast<std::size_t>(c.buckets);
      const Histogram want = cpu_sdh(pool, c.pts, c.width, nb);
      EXPECT_EQ(cpu_sdh_simd(pool, c.pts, c.width, nb), want)
          << c.name << " on " << threads;
      EXPECT_EQ(cpu_sdh_tiled(pool, c.pts, c.width, nb), want)
          << c.name << " on " << threads;
      PointsSoA anchors;
      for (std::size_t i = 0; i < (c.pts.size() + 2) / 3; ++i)
        anchors.push_back(c.pts[i]);
      EXPECT_EQ(cpu_sdh_cross(pool, anchors, c.pts, c.width, nb),
                brute_cross(anchors, c.pts, c.width, c.buckets))
          << c.name << " (cross) on " << threads;
    }
  }
}

TEST(SdhBucketClamp, TinyWidthPutsEveryPairInTheLastBucketOnEveryLoop) {
  // distance / 1e-12 is far beyond INT_MAX: converting it before the
  // clamp gave INT_MIN on x86 and an out-of-bounds increment.
  const PointsSoA pts = uniform_box(1000, 10.0f, 625);
  constexpr double kWidth = 1e-12;
  constexpr std::size_t kBuckets = 64;
  const std::uint64_t pairs = 1000ull * 999 / 2;
  Histogram want(kWidth, kBuckets);
  want.set_count(kBuckets - 1, pairs);

  ThreadPool pool(2);
  EXPECT_EQ(cpu_sdh(pool, pts, kWidth, kBuckets), want);
  EXPECT_EQ(cpu_sdh_tiled(pool, pts, kWidth, kBuckets), want);
  EXPECT_EQ(cpu_sdh_simd(pool, pts, kWidth, kBuckets), want);
  EXPECT_EQ(tree_sdh(pts, kWidth, kBuckets), want);
  EXPECT_EQ(by_rows(sdh_tile_portable, pts, nullptr, kWidth, kBuckets),
            want);
  if (const SdhTileFn avx2 = sdh_tile_avx2(); avx2 != nullptr) {
    EXPECT_EQ(by_rows(avx2, pts, nullptr, kWidth, kBuckets), want);
  }
  const Histogram cross = cpu_sdh_cross(pool, pts, pts, kWidth, kBuckets);
  EXPECT_EQ(cross[kBuckets - 1], 1000ull * 999);  // the self pairs are 0
  EXPECT_EQ(cross[0], 1000u);
  EXPECT_EQ(want.bucket_of(17.0), kBuckets - 1);
  EXPECT_EQ(kernels::bucket_of(17.0f, kWidth, 64), 63);
}

TEST(SdhBucketClamp, InRangeBucketsAreTheTruncatedQuotient) {
  EXPECT_EQ(bucket_index(0.0, 0.5, 8), 0);
  EXPECT_EQ(bucket_index(0.49, 0.5, 8), 0);
  EXPECT_EQ(bucket_index(0.5, 0.5, 8), 1);
  EXPECT_EQ(bucket_index(3.49, 0.5, 8), 6);
  EXPECT_EQ(bucket_index(3.5, 0.5, 8), 7);
  EXPECT_EQ(bucket_index(1e300, 0.5, 8), 7);
  EXPECT_EQ(bucket_index(INFINITY, 0.5, 8), 7);
  EXPECT_EQ(bucket_index(NAN, 0.5, 8), 7);
}

}  // namespace
}  // namespace tbs::cpubase
