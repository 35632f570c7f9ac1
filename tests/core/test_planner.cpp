#include "core/planner.hpp"

#include <gtest/gtest.h>

#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "kernels/pcf.hpp"
#include "kernels/sdh.hpp"

namespace tbs::core {
namespace {

using kernels::ProblemDesc;

/// Plan over a single VgpuBackend on `dev` (no cache, no corrector).
Plan plan_on(vgpu::Device& dev, const PointsSoA& sample,
             const ProblemDesc& desc, double target_n) {
  backend::VgpuBackend be(dev);
  backend::IBackend* one[] = {&be};
  return plan(one, sample, desc, target_n);
}

TEST(Planner, SdhPlanPricesAllLaunchableCandidates) {
  vgpu::Device dev;
  const auto sample = uniform_box(2048, 10.0f, 41);
  const auto plan = plan_on(dev, sample, ProblemDesc::sdh(0.4, 64), 1e6);
  EXPECT_FALSE(plan.considered.empty());
  for (const auto& c : plan.considered) {
    EXPECT_GT(c.predicted_seconds, 0.0) << c.name;
    EXPECT_FALSE(c.bottleneck.empty()) << c.name;
  }
  // The chosen plan must be the cheapest candidate.
  for (const auto& c : plan.considered)
    EXPECT_LE(plan.predicted_seconds, c.predicted_seconds + 1e-12);
}

TEST(Planner, SdhPlanNeverPicksNaiveOutput) {
  // Direct global-atomic variants aren't even candidates; among the
  // privatized ones, the naive pairwise stage must lose to tiled stages.
  vgpu::Device dev;
  const auto sample = uniform_box(2048, 10.0f, 42);
  const auto plan = plan_on(dev, sample, ProblemDesc::sdh(0.4, 64), 2e6);
  const auto variant =
      static_cast<kernels::SdhVariant>(plan.kernel->variant_id);
  EXPECT_NE(variant, kernels::SdhVariant::NaiveOut);
  EXPECT_NE(variant, kernels::SdhVariant::Naive);
}

TEST(Planner, SkipsCandidatesThatCannotLaunch) {
  // An 11000-bucket histogram (44 KB) leaves no room for a 512-point SHM
  // tile (6 KB) under the 48 KB per-block cap: Reg-SHM-Out/B512 must be
  // skipped, not priced.
  vgpu::Device dev;
  const auto sample = uniform_box(2048, 10.0f, 43);
  const auto plan = plan_on(dev, sample, ProblemDesc::sdh(0.01, 11000), 1e5);
  bool saw_any = false;
  for (const auto& c : plan.considered) {
    EXPECT_EQ(c.name.find("Reg-SHM-Out/B512"), std::string::npos);
    EXPECT_EQ(c.name.find("Reg-SHM-LB/B512"), std::string::npos);
    saw_any = true;
  }
  EXPECT_TRUE(saw_any);
}

TEST(Planner, PcfPlanPrefersRegisterShmFamily) {
  // Paper Sec. IV-B: Register-SHM wins for Type-I; at minimum the planner
  // must not choose the ROC variant, which its own analysis ranks last.
  vgpu::Device dev;
  const auto sample = uniform_box(2048, 10.0f, 44);
  const auto plan = plan_on(dev, sample, ProblemDesc::pcf(2.0), 1e6);
  EXPECT_NE(static_cast<kernels::PcfVariant>(plan.kernel->variant_id),
            kernels::PcfVariant::RegRoc);
  EXPECT_GT(plan.predicted_seconds, 0.0);
}

TEST(Planner, RejectsEmptySample) {
  vgpu::Device dev;
  PointsSoA empty;
  EXPECT_THROW((void)plan_on(dev, empty, ProblemDesc::sdh(0.4, 16), 1e5),
               CheckError);
}

}  // namespace
}  // namespace tbs::core
