// The paper's analytical equations vs. the simulator's exact counters, and
// the StatsPoly extrapolation used to reach paper-scale N.
#include "perfmodel/counts.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/datagen.hpp"
#include "common/stats.hpp"
#include "kernels/pcf.hpp"
#include "kernels/sdh.hpp"
#include "vgpu/device.hpp"

namespace tbs::perfmodel {
namespace {

TEST(PaperEquations, ClosedFormsMatchHandSums) {
  // Verify the closed forms against literal summation for small params.
  const double n = 64, b = 8, m = n / b;
  double eq3 = n;
  for (int i = 1; i <= m; ++i) eq3 += (m - i) * b;
  EXPECT_DOUBLE_EQ(paper_eq3_tiled_global(n, b), eq3);

  double eq4 = 0;
  for (int i = 1; i <= m; ++i) eq4 += 2.0 * (m - i) * b * b;
  for (int i = 1; i <= b; ++i) eq4 += 2.0 * (b - i) * m;
  EXPECT_DOUBLE_EQ(paper_eq4_shmshm_shared(n, b), eq4);
  EXPECT_DOUBLE_EQ(paper_eq5_regshm_shared(n, b), eq4 / 2.0);

  EXPECT_DOUBLE_EQ(paper_eq2_naive_global(n), n + n * (n - 1) / 2);
  EXPECT_DOUBLE_EQ(paper_eq6_output_updates(n, b), n * (n - 1) / 2 + n * b);
  EXPECT_DOUBLE_EQ(paper_eq7_reduction_accesses(n, b, 10), 10 * (m * 3 + 1));
}

TEST(PaperEquations, Eq2MatchesNaiveKernelGlobalReads) {
  const std::size_t n = 512;
  const auto pts = uniform_box(n, 10.0f, 7);
  vgpu::Device dev;
  const auto stats =
      kernels::run_pcf(dev, pts, 2.0, kernels::PcfVariant::Naive, 128).stats;
  // Our point loads fetch x/y/z in one instruction; the paper counts datum
  // accesses, so compare loads (1 per datum) against Eq. 2.
  EXPECT_DOUBLE_EQ(static_cast<double>(stats.global_loads),
                   paper_eq2_naive_global(static_cast<double>(n)));
}

TEST(PaperEquations, Eq3MatchesTiledKernelGlobalReads) {
  const std::size_t n = 1024;
  const int b = 128;
  const auto pts = uniform_box(n, 10.0f, 8);
  vgpu::Device dev;
  const auto stats =
      kernels::run_pcf(dev, pts, 2.0, kernels::PcfVariant::RegShm, b).stats;
  EXPECT_DOUBLE_EQ(static_cast<double>(stats.global_loads),
                   paper_eq3_tiled_global(static_cast<double>(n), b));
}

TEST(PaperEquations, Eq5MatchesRegShmSharedReads) {
  // Shared *reads* in the pairwise stage: one tile read per pair, i.e.
  // sum (M-i) B^2 inter-block + sum (B-i) M intra-block = Eq. 5 minus the
  // tile-store traffic, which the paper folds into the same count.
  const std::size_t n = 512;
  const int b = 64;
  const auto pts = uniform_box(n, 10.0f, 9);
  vgpu::Device dev;
  const auto stats =
      kernels::run_pcf(dev, pts, 2.0, kernels::PcfVariant::RegShm, b).stats;
  const double pairs_read = static_cast<double>(stats.shared_loads);
  const double m = static_cast<double>(n) / b;
  const double expected =
      m * (m - 1) / 2 * b * b + b * (b - 1) / 2.0 * m;  // all pairs
  EXPECT_DOUBLE_EQ(pairs_read, expected);
  // Eq. 5 = pair reads + one store per tile element; verify the identity.
  const double stores = static_cast<double>(stats.shared_stores);
  EXPECT_NEAR(pairs_read / paper_eq5_regshm_shared(static_cast<double>(n), b),
              1.0, 0.01);
  EXPECT_GT(stores, 0);
}

TEST(PaperEquations, ShmShmDoublesRegShmSharedReads) {
  const std::size_t n = 512;
  const int b = 64;
  const auto pts = uniform_box(n, 10.0f, 10);
  vgpu::Device dev;
  const auto reg =
      kernels::run_pcf(dev, pts, 2.0, kernels::PcfVariant::RegShm, b).stats;
  const auto shm =
      kernels::run_pcf(dev, pts, 2.0, kernels::PcfVariant::ShmShm, b).stats;
  // Paper's Eq. 4 vs Eq. 5: SHM-SHM performs twice the shared reads.
  EXPECT_DOUBLE_EQ(static_cast<double>(shm.shared_loads),
                   2.0 * static_cast<double>(reg.shared_loads));
}

class StatsPolyParam
    : public ::testing::TestWithParam<kernels::SdhVariant> {};

TEST_P(StatsPolyParam, ExtrapolatesDeterministicCountersExactly) {
  const auto variant = GetParam();
  const int b = 128;
  const int buckets = 32;
  const float box = 10.0f;
  vgpu::Device dev;

  const auto run_at = [&](std::size_t n) {
    const auto pts = uniform_box(n, box, 1000);  // same distribution
    return kernels::run_sdh(dev, pts, 0.35, buckets, variant, b).stats;
  };
  const StatsPoly poly({512, 1024, 2048},
                       {run_at(512), run_at(1024), run_at(2048)});
  const auto predicted = poly.predict(4096);
  const auto actual = run_at(4096);

  // Deterministic counters must extrapolate exactly.
  EXPECT_EQ(predicted.global_loads, actual.global_loads);
  EXPECT_EQ(predicted.shared_loads, actual.shared_loads);
  EXPECT_EQ(predicted.shared_stores, actual.shared_stores);
  EXPECT_EQ(predicted.shared_atomics, actual.shared_atomics);
  EXPECT_EQ(predicted.global_atomics, actual.global_atomics);
  EXPECT_EQ(predicted.shuffles, actual.shuffles);
  EXPECT_NEAR(predicted.arith_ops, actual.arith_ops,
              1e-6 * actual.arith_ops + 1.0);
  // Data-dependent counters (atomic collisions -> cycles) extrapolate
  // approximately: the collision profile is N-independent for uniform data.
  EXPECT_LT(tbs::rel_diff(predicted.total_warp_cycles,
                          actual.total_warp_cycles),
            0.10)
      << to_string(variant);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, StatsPolyParam,
    ::testing::Values(kernels::SdhVariant::RegShmOut,
                      kernels::SdhVariant::RegRocOut,
                      kernels::SdhVariant::ShuffleOut,
                      kernels::SdhVariant::RegShmLb));

TEST(StatsPoly, ValidatesInputs) {
  vgpu::KernelStats a, b, c;
  a.block_dim = b.block_dim = 128;
  c.block_dim = 256;
  EXPECT_THROW(StatsPoly({2, 1, 3}, {a, b, a}), CheckError);
  EXPECT_THROW(StatsPoly({1, 2, 3}, {a, b, c}), CheckError);
}

TEST(StatsPoly, InterpolatesTheSamplePointsThemselves) {
  const int b = 64;
  vgpu::Device dev;
  const auto run_at = [&](std::size_t n) {
    const auto pts = uniform_box(n, 10.0f, 5);
    return kernels::run_pcf(dev, pts, 2.0, kernels::PcfVariant::RegShm, b)
        .stats;
  };
  const auto s1 = run_at(256);
  const auto s2 = run_at(512);
  const auto s3 = run_at(1024);
  const StatsPoly poly({256, 512, 1024}, {s1, s2, s3});
  EXPECT_EQ(poly.predict(512).shared_loads, s2.shared_loads);
  EXPECT_EQ(poly.predict(1024).global_loads, s3.global_loads);
}

TEST(StatsPoly, OneTwoAndThreeBlocksPinTheIndexDeterminedCounters) {
  // The planner fits each vgpu candidate at N = B, 2B and 3B. Counters
  // that indices alone decide are one polynomial in M = N/B, so those
  // three sizes predict them at a larger N exactly.
  const int b = 128;
  vgpu::Device dev;
  const auto pts = uniform_box(2048, 10.0f, 77);
  const auto take = [&](std::size_t n) {
    PointsSoA out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(pts[i]);
    return out;
  };
  const auto check = [&](const std::string& name, const auto& run) {
    SCOPED_TRACE(name);
    const StatsPoly poly({b, 2.0 * b, 3.0 * b},
                         {run(take(b)), run(take(2 * b)), run(take(3 * b))});
    const vgpu::KernelStats predicted = poly.predict(2048);
    const vgpu::KernelStats actual = run(pts);
    EXPECT_EQ(predicted.global_loads, actual.global_loads);
    EXPECT_EQ(predicted.global_stores, actual.global_stores);
    EXPECT_EQ(predicted.global_atomics, actual.global_atomics);
    EXPECT_EQ(predicted.roc_loads, actual.roc_loads);
    EXPECT_EQ(predicted.shared_loads, actual.shared_loads);
    EXPECT_EQ(predicted.shared_stores, actual.shared_stores);
    EXPECT_EQ(predicted.shared_atomics, actual.shared_atomics);
    EXPECT_EQ(predicted.shuffles, actual.shuffles);
    EXPECT_EQ(predicted.barriers, actual.barriers);
    EXPECT_EQ(predicted.warp_instructions, actual.warp_instructions);
  };
  for (const auto v : {kernels::SdhVariant::NaiveOut,
                       kernels::SdhVariant::RegShmOut,
                       kernels::SdhVariant::RegRocOut,
                       kernels::SdhVariant::ShuffleOut,
                       kernels::SdhVariant::RegShmLb})
    check(kernels::to_string(v), [&](const PointsSoA& p) {
      return kernels::run_sdh(dev, p, 0.35, 32, v, b).stats;
    });
  for (const auto v :
       {kernels::PcfVariant::ShmShm, kernels::PcfVariant::RegShm,
        kernels::PcfVariant::RegRoc})
    check(kernels::to_string(v), [&](const PointsSoA& p) {
      return kernels::run_pcf(dev, p, 2.0, v, b).stats;
    });
}

TEST(StatsPoly, NamesTheFieldsWhoseFitGoesNegative) {
  // A concave triple, like the layout-dependent dram_bytes 0 / 6144 / 0
  // a calibration can measure, bends the fit below zero at large N: it
  // reads 0, and the field is named so the 0 is not taken for a count.
  std::array<vgpu::KernelStats, 3> s{};
  for (vgpu::KernelStats& k : s) k.block_dim = 128;
  s[1].dram_bytes = 6144;
  const StatsPoly concave({128, 256, 384}, s);
  std::vector<std::string> clamped;
  EXPECT_EQ(concave.predict(4096, &clamped).dram_bytes, 0u);
  EXPECT_EQ(clamped, std::vector<std::string>{"dram_bytes"});
  EXPECT_EQ(concave.predict(4096).dram_bytes, 0u);

  // The convex triple 6144 / 0 / 6144 is 6144 (M - 2)^2: nothing clamps.
  s[0].dram_bytes = 6144;
  s[1].dram_bytes = 0;
  s[2].dram_bytes = 6144;
  const StatsPoly convex({128, 256, 384}, s);
  clamped.clear();
  EXPECT_EQ(convex.predict(4096, &clamped).dram_bytes, 6144u * 30 * 30);
  EXPECT_TRUE(clamped.empty());
}

}  // namespace
}  // namespace tbs::perfmodel
