// Cross-cutting property sweeps over the kernel family: invariants that
// must hold for every variant, size, block size and distribution.
#include <gtest/gtest.h>

#include "common/datagen.hpp"
#include "kernels/pcf.hpp"
#include "kernels/sdh.hpp"
#include "vgpu/device.hpp"

namespace tbs::kernels {
namespace {

// ---------------------------------------------------------------------------
// Property 1: every SDH variant's histogram total is exactly C(N, 2),
// for any size / block / bucket geometry.
// ---------------------------------------------------------------------------

struct TotalCase {
  std::size_t n;
  int block;
  int buckets;
};

class SdhTotalSweep : public ::testing::TestWithParam<TotalCase> {};

TEST_P(SdhTotalSweep, EveryVariantCountsEveryPairOnce) {
  const auto [n, block, buckets] = GetParam();
  const auto pts = gaussian_clusters(n, 3, 15.0f, 1.0f, 801 + n);
  const double w = pts.max_possible_distance() / buckets + 1e-4;
  vgpu::Device dev;
  for (const auto v :
       {SdhVariant::Naive, SdhVariant::RegShm, SdhVariant::RegRoc,
        SdhVariant::NaiveOut, SdhVariant::RegShmOut, SdhVariant::RegRocOut,
        SdhVariant::RegShmLb, SdhVariant::ShuffleOut}) {
    const auto r = run_sdh(dev, pts, w, buckets, v, block);
    EXPECT_EQ(r.hist.total(), n * (n - 1) / 2)
        << to_string(v) << " n=" << n << " B=" << block;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, SdhTotalSweep,
    ::testing::Values(TotalCase{64, 32, 4}, TotalCase{100, 64, 7},
                      TotalCase{256, 64, 19}, TotalCase{500, 128, 64},
                      TotalCase{640, 256, 128}, TotalCase{1024, 512, 11}));

// ---------------------------------------------------------------------------
// Property 2: results are independent of the block size.
// ---------------------------------------------------------------------------

TEST(KernelProperties, SdhResultIndependentOfBlockSize) {
  const auto pts = uniform_box(600, 10.0f, 802);
  vgpu::Device dev;
  const auto reference =
      run_sdh(dev, pts, 0.5, 32, SdhVariant::RegShmOut, 64).hist;
  for (const int b : {32, 128, 256, 512, 1024}) {
    EXPECT_EQ(run_sdh(dev, pts, 0.5, 32, SdhVariant::RegShmOut, b).hist,
              reference)
        << "B=" << b;
  }
}

TEST(KernelProperties, PcfResultIndependentOfBlockSizeAndVariant) {
  const auto pts = hardcore_gas(400, 15.0f, 0.8f, 803);
  vgpu::Device dev;
  const auto reference =
      run_pcf(dev, pts, 1.7, PcfVariant::Naive, 64).pairs_within;
  for (const auto v :
       {PcfVariant::ShmShm, PcfVariant::RegShm, PcfVariant::RegRoc}) {
    for (const int b : {32, 96, 256}) {
      EXPECT_EQ(run_pcf(dev, pts, 1.7, v, b).pairs_within, reference)
          << to_string(v) << " B=" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Property 3: monotonicity — growing the radius can only add PCF pairs;
// refining buckets redistributes but preserves SDH mass.
// ---------------------------------------------------------------------------

TEST(KernelProperties, PcfMonotoneInRadius) {
  const auto pts = uniform_box(500, 10.0f, 804);
  vgpu::Device dev;
  std::uint64_t prev = 0;
  for (const double r : {0.5, 1.0, 2.0, 4.0, 8.0, 20.0}) {
    const auto count =
        run_pcf(dev, pts, r, PcfVariant::RegShm, 128).pairs_within;
    EXPECT_GE(count, prev) << "radius " << r;
    prev = count;
  }
  EXPECT_EQ(prev, 500u * 499 / 2);  // radius > diagonal captures all
}

TEST(KernelProperties, SdhRefinementPreservesMass) {
  const auto pts = uniform_box(400, 10.0f, 805);
  const double w = pts.max_possible_distance();
  vgpu::Device dev;
  // 2x finer buckets: each coarse bucket equals the sum of its two halves.
  const auto coarse =
      run_sdh(dev, pts, w / 8, 8, SdhVariant::RegShmOut, 128).hist;
  const auto fine =
      run_sdh(dev, pts, w / 16, 16, SdhVariant::RegShmOut, 128).hist;
  for (int b = 0; b < 8; ++b)
    EXPECT_EQ(coarse[static_cast<std::size_t>(b)],
              fine[static_cast<std::size_t>(2 * b)] +
                  fine[static_cast<std::size_t>(2 * b + 1)])
        << "bucket " << b;
}

// ---------------------------------------------------------------------------
// Property 4: determinism across repeated runs (same device, same input).
// ---------------------------------------------------------------------------

TEST(KernelProperties, RepeatedRunsAreBitIdentical) {
  const auto pts = uniform_box(512, 10.0f, 806);
  vgpu::Device dev;
  const auto a = run_sdh(dev, pts, 0.5, 32, SdhVariant::ShuffleOut, 128);
  const auto b = run_sdh(dev, pts, 0.5, 32, SdhVariant::ShuffleOut, 128);
  EXPECT_EQ(a.hist, b.hist);
  EXPECT_EQ(a.stats.shared_atomics, b.stats.shared_atomics);
  EXPECT_EQ(a.stats.total_warp_cycles, b.stats.total_warp_cycles);
}

// ---------------------------------------------------------------------------
// Property 5: workload-distribution stress — all variants agree on
// adversarial inputs (all-identical points, collinear points).
// ---------------------------------------------------------------------------

TEST(KernelProperties, AllVariantsAgreeOnDegenerateInputs) {
  PointsSoA identical;
  for (int i = 0; i < 128; ++i) identical.push_back({3, 3, 3});
  PointsSoA collinear;
  for (int i = 0; i < 128; ++i)
    collinear.push_back({static_cast<float>(i) * 0.25f, 0, 0});

  vgpu::Device dev;
  for (const auto* pts : {&identical, &collinear}) {
    const auto reference =
        run_sdh(dev, *pts, 1.0, 40, SdhVariant::Naive, 64).hist;
    for (const auto v : {SdhVariant::RegShmOut, SdhVariant::RegRocOut,
                         SdhVariant::RegShmLb, SdhVariant::ShuffleOut}) {
      EXPECT_EQ(run_sdh(dev, *pts, 1.0, 40, v, 64).hist, reference)
          << to_string(v);
    }
  }
  // All-identical points: everything lands in bucket 0.
  const auto h = run_sdh(dev, identical, 1.0, 40,
                         SdhVariant::RegShmOut, 64).hist;
  EXPECT_EQ(h[0], 128u * 127 / 2);
}

}  // namespace
}  // namespace tbs::kernels
