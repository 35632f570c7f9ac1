// CpuBackend first-use calibration hardening: the per-pair cost is
// lazily calibrated from a timed run on the first estimate(), and that
// first use may be concurrent — every caller must still see a positive,
// finite cost (no torn/zero read, no divide-by-zero estimate), and the
// calibrated value must be identical across all of them.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "common/datagen.hpp"
#include "cpubase/cell_grid.hpp"
#include "kernels/registry.hpp"

namespace tbs::backend {
namespace {

const kernels::KernelVariant& sdh_variant() {
  const kernels::KernelVariant* v = kernels::KernelRegistry::instance().find(
      kernels::ProblemType::Sdh, "Reg-ROC-Out");
  EXPECT_NE(v, nullptr);
  return *v;
}

TEST(CpuCalibration, ConcurrentFirstUseNeverYieldsZeroOrTornCost) {
  CpuBackend::Config cfg;
  cfg.threads = 2;  // cfg.pair_cost_seconds = 0: calibrate on first use
  CpuBackend be(cfg);

  const PointsSoA sample = uniform_box(512, 10.0f, 7);
  const auto desc =
      kernels::ProblemDesc::sdh(sample.max_possible_distance() / 16 + 1e-4, 16);
  const kernels::KernelVariant& v = sdh_variant();

  constexpr int kThreads = 8;
  constexpr int kReps = 4;
  std::vector<double> seconds(kThreads * kReps, -1.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kReps; ++r) {
        const Estimate e = be.estimate(v, sample, desc, 128, 65536.0);
        seconds[t * kReps + r] = e.seconds;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Same variant, same N: every estimate prices off the one calibrated
  // pair cost, so all of them must be positive, finite, and identical.
  for (double s : seconds) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GT(s, 0.0);
    EXPECT_DOUBLE_EQ(s, seconds[0]);
  }
}

TEST(CpuCalibration, PinnedPairCostSkipsCalibrationAndIsDeterministic) {
  CpuBackend::Config cfg;
  cfg.threads = 4;
  cfg.pair_cost_seconds = 2e-9;
  CpuBackend be(cfg);

  const PointsSoA sample = uniform_box(256, 10.0f, 8);
  const auto desc =
      kernels::ProblemDesc::sdh(sample.max_possible_distance() / 16 + 1e-4, 16);
  const kernels::KernelVariant& v = sdh_variant();

  const double n = 10000.0;
  const double pairs = n * (n - 1.0) / 2.0;
  const Estimate e = be.estimate(v, sample, desc, 128, n);
  // Quadratic pricing: pairs * pair_cost / threads + fixed overhead.
  EXPECT_DOUBLE_EQ(e.seconds,
                   pairs * cfg.pair_cost_seconds / 4.0 +
                       CpuBackend::kLaunchOverheadSeconds);
  // And pinned means pinned: a second call is bit-identical.
  EXPECT_DOUBLE_EQ(be.estimate(v, sample, desc, 128, n).seconds, e.seconds);
}

TEST(CpuCalibration, PcfIsPricedByTheGridsCandidatePairs) {
  CpuBackend::Config cfg;
  cfg.threads = 2;
  cfg.pair_cost_seconds = 2e-9;
  CpuBackend be(cfg);

  // Sparse radius query: the grid examines a small share of all pairs,
  // and the estimate prices exactly those.
  const PointsSoA pts = uniform_box(8000, 80.0f, 9);
  const auto desc = kernels::ProblemDesc::pcf(1.0);
  const kernels::KernelVariant* v = kernels::KernelRegistry::instance().find(
      kernels::ProblemType::Pcf, "Register-SHM");
  ASSERT_NE(v, nullptr);
  const double n = static_cast<double>(pts.size());
  const Estimate e = be.estimate(*v, pts, desc, 256, n);
  EXPECT_DOUBLE_EQ(e.seconds, cpubase::pcf_grid_pairs(pts, 1.0) *
                                      cfg.pair_cost_seconds / 2.0 +
                                  CpuBackend::kLaunchOverheadSeconds);
  const double all_pairs = n * (n - 1.0) / 2.0;
  EXPECT_LT(e.seconds, all_pairs * cfg.pair_cost_seconds / 2.0 / 10.0);
}

}  // namespace
}  // namespace tbs::backend
