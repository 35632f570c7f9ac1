// Capability negotiation and heterogeneous planner placement.
//
// The placement regimes test is the acceptance criterion of the backend
// seam: with a pinned (deterministic) CPU cost model, core::plan() over
// {cpu, vgpu} must put small SDH problems on the simulated GPU and large
// clustered ones on the CPU's sub-quadratic tree path — same planner, same
// registry, only the backend set in the call changes.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "backend/cpu_backend.hpp"
#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "core/planner.hpp"
#include "kernels/registry.hpp"
#include "vgpu/device.hpp"

namespace tbs {
namespace {

backend::CpuBackend::Config pinned_cpu_config() {
  backend::CpuBackend::Config c;
  c.threads = 8;  // fixed, so estimates don't depend on the host
  c.pair_cost_seconds = 1e-9;  // pinned: no wall-clock calibration
  return c;
}

class BackendPlacement : public ::testing::Test {
 protected:
  BackendPlacement()
      : vgpu_be_(dev_), cpu_be_(pinned_cpu_config()) {}

  vgpu::Device dev_;
  backend::VgpuBackend vgpu_be_;
  backend::CpuBackend cpu_be_;
};

TEST_F(BackendPlacement, CapabilitiesIdentifyTheSubstrate) {
  const backend::Capabilities& vc = vgpu_be_.caps();
  EXPECT_EQ(vc.kind, backend::Kind::Vgpu);
  EXPECT_EQ(vc.registry_mask, kernels::kBackendVgpu);
  EXPECT_EQ(vc.name.rfind("vgpu:", 0), 0u) << vc.name;
  EXPECT_GT(vc.parallel_units, 0);
  EXPECT_GT(vc.shared_mem_per_block_cap, 0u);

  const backend::Capabilities& cc = cpu_be_.caps();
  EXPECT_EQ(cc.kind, backend::Kind::Cpu);
  EXPECT_EQ(cc.registry_mask, kernels::kBackendCpu);
  EXPECT_EQ(cc.name.rfind("cpu:", 0), 0u) << cc.name;
  EXPECT_EQ(cc.parallel_units, 8);
}

TEST_F(BackendPlacement, CanLaunchFollowsTheRegistryMask) {
  const auto desc = kernels::ProblemDesc::sdh(0.5, 32);
  for (const kernels::KernelVariant& v :
       kernels::KernelRegistry::instance().variants()) {
    if (v.problem != kernels::ProblemType::Sdh) continue;
    // A backend never launches a variant outside its mask; within the mask
    // only resource limits (vgpu shared memory) may refuse.
    if (!v.supports(kernels::kBackendCpu)) {
      EXPECT_FALSE(cpu_be_.can_launch(v, desc, 128)) << v.name;
    } else {
      EXPECT_TRUE(cpu_be_.can_launch(v, desc, 128)) << v.name;
    }
    if (!v.supports(kernels::kBackendVgpu)) {
      EXPECT_FALSE(vgpu_be_.can_launch(v, desc, 128)) << v.name;
    }
  }
}

TEST_F(BackendPlacement, StageMovesTheCoordinateBytes) {
  const PointsSoA pts = uniform_box(1000, 10.0f, 1);
  const std::size_t bytes = cpu_be_.stage(pts);
  EXPECT_EQ(bytes, pts.size() * 3 * sizeof(float));
  EXPECT_EQ(cpu_be_.counters().bytes_staged, bytes);
  EXPECT_EQ(vgpu_be_.stage(pts), bytes);
}

TEST_F(BackendPlacement, LaunchCountersAreMonotonic) {
  const PointsSoA pts = uniform_box(300, 10.0f, 2);
  const double width = pts.max_possible_distance() / 16 + 1e-4;
  const auto desc = kernels::ProblemDesc::sdh(width, 16);
  const kernels::KernelVariant* v = kernels::KernelRegistry::instance().find(
      kernels::ProblemType::Sdh, "Reg-ROC-Out");
  ASSERT_NE(v, nullptr);

  const std::uint64_t before = cpu_be_.counters().launches;
  Histogram h(width, 16);
  kernels::KernelOutput out;
  out.hist = &h;
  (void)cpu_be_.launch(*v, pts, desc, 128, out);
  EXPECT_EQ(cpu_be_.counters().launches, before + 1);
}

// The acceptance criterion: one planner, two regimes. Small N lands on the
// vgpu; large clustered N lands on the CPU tree path. The CPU cost model is
// pinned and the vgpu model is simulator-deterministic, so this placement
// is exact, not a flaky timing comparison.
TEST_F(BackendPlacement, SdhPlacementSplitsAcrossSizeRegimes) {
  const PointsSoA sample = gaussian_clusters(4096, 8, 10.0f, 0.2f, 42);
  const int buckets = 4;  // wide buckets: the tree's bulk-resolve regime
  const double width = sample.max_possible_distance() / buckets + 1e-4;
  const auto desc = kernels::ProblemDesc::sdh(width, buckets);
  backend::IBackend* both[] = {&cpu_be_, &vgpu_be_};

  const core::Plan small = core::plan(both, sample, desc, 2048.0);
  EXPECT_EQ(small.backend, backend::Kind::Vgpu);
  EXPECT_EQ(small.backend_name, vgpu_be_.caps().name);
  ASSERT_NE(small.kernel, nullptr);
  EXPECT_TRUE(small.kernel->supports(kernels::kBackendVgpu));

  const core::Plan large = core::plan(both, sample, desc, 1048576.0);
  EXPECT_EQ(large.backend, backend::Kind::Cpu);
  EXPECT_EQ(large.backend_name, cpu_be_.caps().name);
  ASSERT_NE(large.kernel, nullptr);
  EXPECT_EQ(large.kernel->name, "Tree-SDH");
  EXPECT_LT(large.predicted_seconds, small.predicted_seconds * 1e6);

  // Candidates from both substrates were priced in the large-N decision.
  bool saw_cpu = false;
  bool saw_vgpu = false;
  for (const core::Candidate& c : large.considered) {
    saw_cpu = saw_cpu || c.backend == cpu_be_.caps().name;
    saw_vgpu = saw_vgpu || c.backend == vgpu_be_.caps().name;
  }
  EXPECT_TRUE(saw_cpu);
  EXPECT_TRUE(saw_vgpu);
}

TEST_F(BackendPlacement, SingleBackendSetsPlanOnThatBackend) {
  const PointsSoA sample = uniform_box(2048, 10.0f, 7);
  const auto desc =
      kernels::ProblemDesc::sdh(sample.max_possible_distance() / 32 + 1e-4,
                                32);
  backend::IBackend* cpu_only[] = {&cpu_be_};
  const core::Plan pc = core::plan(cpu_only, sample, desc, 50000.0);
  EXPECT_EQ(pc.backend, backend::Kind::Cpu);
  ASSERT_NE(pc.kernel, nullptr);
  EXPECT_TRUE(pc.kernel->supports(kernels::kBackendCpu));

  backend::IBackend* vgpu_only[] = {&vgpu_be_};
  const core::Plan pv = core::plan(vgpu_only, sample, desc, 50000.0);
  EXPECT_EQ(pv.backend, backend::Kind::Vgpu);
  ASSERT_NE(pv.kernel, nullptr);
  EXPECT_TRUE(pv.kernel->supports(kernels::kBackendVgpu));
}

TEST_F(BackendPlacement, PlanCacheKeysOnTheBackendSet) {
  const PointsSoA sample = uniform_box(2048, 10.0f, 7);
  const auto desc =
      kernels::ProblemDesc::sdh(sample.max_possible_distance() / 32 + 1e-4,
                                32);
  core::PlanCache cache;

  backend::IBackend* vgpu_only[] = {&vgpu_be_};
  backend::IBackend* both[] = {&cpu_be_, &vgpu_be_};
  (void)core::plan(vgpu_only, sample, desc, 50000.0, &cache);
  EXPECT_EQ(cache.size(), 1u);
  // A different backend set is a different planning question: must miss.
  (void)core::plan(both, sample, desc, 50000.0, &cache);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  // Same set again: memoized, zero new calibration.
  const std::uint64_t launches = vgpu_be_.counters().launches;
  (void)core::plan(both, sample, desc, 50000.0, &cache);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(vgpu_be_.counters().launches, launches);
}

TEST(VgpuBackendLaunchMode, EveryLaunchRunsPooled) {
  // The mode each launch runs in is part of the contract: every vgpu
  // launch through the backend, kNN's included, runs its blocks on the
  // block queue.
  vgpu::Device dev;
  std::vector<bool> pooled;
  dev.set_launch_observer([&pooled](const vgpu::LaunchRecord& rec) {
    pooled.push_back(rec.pooled);
  });
  backend::VgpuBackend be(dev);
  const PointsSoA pts = uniform_box(300, 10.0f, /*seed=*/61);
  const kernels::ProblemDesc sdh =
      kernels::ProblemDesc::sdh(pts.max_possible_distance() / 32 + 1e-4, 32);
  const kernels::ProblemDesc pcf = kernels::ProblemDesc::pcf(1.5);
  const auto desc_for = [&](kernels::ProblemType t) {
    switch (t) {
      case kernels::ProblemType::Sdh: return sdh;
      case kernels::ProblemType::Pcf: return pcf;
      case kernels::ProblemType::Knn: return kernels::ProblemDesc::knn(4);
      case kernels::ProblemType::Join: return kernels::ProblemDesc::join(1.5);
    }
    return sdh;
  };
  const auto expect_mode = [&](bool want, const std::string& what) {
    ASSERT_FALSE(pooled.empty()) << what;
    for (const bool p : pooled) EXPECT_EQ(p, want) << what;
    pooled.clear();
  };

  int launched = 0;
  for (const kernels::KernelVariant& v :
       kernels::KernelRegistry::instance().variants()) {
    if (!v.supports(kernels::kBackendVgpu)) continue;
    kernels::KernelOutput out;
    (void)be.launch(v, pts, desc_for(v.problem), 64, out);
    expect_mode(true, v.name);
    ++launched;
  }
  EXPECT_EQ(launched, 16);  // 8 SDH + 4 PCF + warpsum + kNN + 2 joins

  const PointsSoA partners = uniform_box(200, 10.0f, /*seed=*/62);
  for (const kernels::ProblemDesc& desc : {sdh, pcf}) {
    kernels::KernelOutput out;
    (void)be.launch_cross(pts, partners, desc, 64, out);
    expect_mode(true, "launch_cross");
  }

  (void)be.estimate(
      kernels::KernelRegistry::instance().baseline(kernels::ProblemType::Sdh),
      pts, sdh, 64, 4096.0);
  EXPECT_EQ(pooled.size(), 6u);  // 3 calibration sizes x (main + reduce)
  expect_mode(true, "estimate");
}

TEST(VgpuBackendEstimate, CalibratesAtOneTwoAndThreeBlocks) {
  // For a fixed block size B the counters are a degree-2 polynomial in the
  // block count, so estimate() simulates the three smallest sizes that pin
  // it, N = B, 2B, 3B, whatever the target or the sample size.
  vgpu::Device dev;
  std::vector<std::pair<int, int>> launched;  // (grid, block) per launch
  dev.set_launch_observer([&launched](const vgpu::LaunchRecord& rec) {
    launched.emplace_back(rec.cfg.grid_dim, rec.cfg.block_dim);
  });
  backend::VgpuBackend be(dev);
  const PointsSoA sample = uniform_box(4096, 10.0f, /*seed=*/63);
  const kernels::KernelRegistry& registry =
      kernels::KernelRegistry::instance();
  using Launches = std::vector<std::pair<int, int>>;

  for (const int block : {128, 256, 512}) {
    (void)be.estimate(registry.baseline(kernels::ProblemType::Pcf), sample,
                      kernels::ProblemDesc::pcf(1.5), block, 1e6);
    EXPECT_EQ(launched, (Launches{{1, block}, {2, block}, {3, block}}));
    launched.clear();
  }

  // A privatized SDH launch is the main kernel, then the reduction of the
  // per-block histograms (one block for 32 buckets).
  const kernels::ProblemDesc sdh = kernels::ProblemDesc::sdh(
      sample.max_possible_distance() / 32 + 1e-4, 32);
  (void)be.estimate(registry.baseline(kernels::ProblemType::Sdh), sample, sdh,
                    128, 1e6);
  EXPECT_EQ(launched, (Launches{{1, 128}, {1, 128}, {2, 128}, {1, 128},
                                {3, 128}, {1, 128}}));
}

TEST(VgpuBackendEstimate, IsAPureFunctionOfItsArguments) {
  // An estimate reads its arguments and the device spec, never the
  // serving device's history: unrelated launches on the device in between
  // change no field, and a backend on another device prices the same.
  const kernels::KernelRegistry& registry =
      kernels::KernelRegistry::instance();
  const PointsSoA sample = uniform_box(4096, 10.0f, /*seed=*/7);
  const kernels::ProblemDesc sdh = kernels::ProblemDesc::sdh(
      sample.max_possible_distance() / 64 + 1e-4, 64);
  const kernels::KernelVariant& shuffle =
      *registry.find(kernels::ProblemType::Sdh, "Shuffle");

  vgpu::Device dev;
  backend::VgpuBackend be(dev);
  const backend::Estimate before = be.estimate(shuffle, sample, sdh, 128, 1e6);
  for (const char* name : {"Reg-ROC-Out", "Reg-SHM-Out", "Shuffle"}) {
    const PointsSoA other = uniform_box(2048, 10.0f, /*seed=*/8);
    kernels::KernelOutput out;
    (void)be.launch(*registry.find(kernels::ProblemType::Sdh, name), other,
                    sdh, 256, out);
  }
  const backend::Estimate after = be.estimate(shuffle, sample, sdh, 128, 1e6);

  vgpu::Device elsewhere_dev;
  backend::VgpuBackend elsewhere(elsewhere_dev);
  const backend::Estimate fresh =
      elsewhere.estimate(shuffle, sample, sdh, 128, 1e6);

  for (const backend::Estimate& e : {after, fresh}) {
    EXPECT_EQ(e.seconds, before.seconds);
    EXPECT_EQ(e.bottleneck, before.bottleneck);
    EXPECT_EQ(e.clamped_fits, before.clamped_fits);
  }
}

#ifdef __linux__
TEST(CpuBackendAffinity, DefaultLaunchLeavesTheCallersMaskUnchanged) {
  // Worker 0 of a CPU pool is the calling thread, so a pinning policy would
  // change the caller's own mask and keep it changed after the launch. The
  // launch runs on a fresh thread widened to every core the process may
  // use, so no earlier pin of the test's main thread can hide a new one.
  cpu_set_t before;
  cpu_set_t after;
  CPU_ZERO(&before);
  CPU_ZERO(&after);
  std::thread caller([&] {
    cpu_set_t all;
    CPU_ZERO(&all);
    for (int c = 0; c < CPU_SETSIZE; ++c) CPU_SET(c, &all);
    (void)sched_setaffinity(0, sizeof(all), &all);
    (void)sched_getaffinity(0, sizeof(before), &before);
    backend::CpuBackend be;  // default Config: one worker per core
    const PointsSoA pts = uniform_box(2000, 10.0f, /*seed=*/5);
    const auto& registry = kernels::KernelRegistry::instance();
    Histogram hist;
    std::uint64_t pairs = 0;
    kernels::KernelOutput out;
    out.hist = &hist;
    out.pairs = &pairs;
    (void)be.launch(*registry.find(kernels::ProblemType::Sdh, "Reg-ROC-Out"),
                    pts, kernels::ProblemDesc::sdh(0.5, 64), 256, out);
    (void)be.launch(*registry.find(kernels::ProblemType::Pcf, "Register-SHM"),
                    pts, kernels::ProblemDesc::pcf(1.0), 256, out);
    (void)sched_getaffinity(0, sizeof(after), &after);
  });
  caller.join();
  if (CPU_COUNT(&before) < 2) GTEST_SKIP() << "one usable core: no pin shows";
  EXPECT_TRUE(CPU_EQUAL(&before, &after))
      << CPU_COUNT(&before) << " cores before, " << CPU_COUNT(&after)
      << " after";
}
#endif

}  // namespace
}  // namespace tbs
