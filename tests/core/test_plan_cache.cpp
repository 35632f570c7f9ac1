// Generic registry-driven plan() and the PlanCache: cache keys, hit/miss
// accounting, zero re-simulation on a hit, and the framework facade reusing
// memoized plans across repeated queries.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "common/error.hpp"
#include "core/framework.hpp"
#include "core/planner.hpp"
#include "kernels/registry.hpp"
#include "vgpu/device.hpp"

namespace tbs::core {
namespace {

using kernels::ProblemDesc;

/// Forwards to `inner`, calling `hook` with each candidate before pricing
/// it: a hook that throws fails that candidate's calibration (calibration
/// launches run on cold devices, which no fault plan reaches).
class HookedEstimates final : public backend::IBackend {
 public:
  using Hook = std::function<void(const kernels::KernelVariant&, int)>;

  HookedEstimates(backend::IBackend& inner, Hook hook)
      : inner_(inner), hook_(std::move(hook)) {}

  [[nodiscard]] const backend::Capabilities& caps() const override {
    return inner_.caps();
  }
  [[nodiscard]] bool can_launch(const kernels::KernelVariant& v,
                                const ProblemDesc& desc,
                                int block_size) const override {
    return inner_.can_launch(v, desc, block_size);
  }
  std::size_t stage(const PointsSoA& pts) override {
    return inner_.stage(pts);
  }
  vgpu::KernelStats launch(const kernels::KernelVariant& v,
                           const PointsSoA& pts, const ProblemDesc& desc,
                           int block_size,
                           kernels::KernelOutput& out) override {
    return inner_.launch(v, pts, desc, block_size, out);
  }
  vgpu::KernelStats launch_cross(const PointsSoA& anchors,
                                 const PointsSoA& partners,
                                 const ProblemDesc& desc, int block_size,
                                 kernels::KernelOutput& out) override {
    return inner_.launch_cross(anchors, partners, desc, block_size, out);
  }
  [[nodiscard]] backend::Estimate estimate(const kernels::KernelVariant& v,
                                           const PointsSoA& sample,
                                           const ProblemDesc& desc,
                                           int block_size,
                                           double target_n) override {
    hook_(v, block_size);
    return inner_.estimate(v, sample, desc, block_size, target_n);
  }
  [[nodiscard]] backend::Counters counters() const override {
    return inner_.counters();
  }

 private:
  backend::IBackend& inner_;
  Hook hook_;
};

/// A hook whose first `n` calls throw a device error (from any thread).
HookedEstimates::Hook fail_first(int n) {
  auto left = std::make_shared<std::atomic<int>>(n);
  return [left](const kernels::KernelVariant&, int) {
    if (left->fetch_sub(1) > 0)
      throw vgpu::DeviceLostError("injected calibration failure");
  };
}

TEST(GenericPlan, AgreesAcrossBackendsOnEqualDevices) {
  // Two VgpuBackends on two equal devices (as the framework and the serve
  // engine plan) must reach the same plan.
  const auto sample = uniform_box(2048, 10.0f, 3);
  const int buckets = 64;
  const double width = sample.max_possible_distance() / buckets + 1e-4;
  const auto desc = ProblemDesc::sdh(width, buckets);

  vgpu::Device dev;
  backend::VgpuBackend first(dev);
  backend::IBackend* one[] = {&first};
  const Plan a = plan(one, sample, desc, 100'000.0);
  ASSERT_NE(a.kernel, nullptr);

  vgpu::Device dev2;
  backend::VgpuBackend second(dev2);
  backend::IBackend* other[] = {&second};
  const Plan b = plan(other, sample, desc, 100'000.0);
  EXPECT_EQ(b.kernel->variant_id, a.kernel->variant_id);
  EXPECT_EQ(b.block_size, a.block_size);
  EXPECT_DOUBLE_EQ(b.predicted_seconds, a.predicted_seconds);
  ASSERT_EQ(b.considered.size(), a.considered.size());
  for (std::size_t i = 0; i < a.considered.size(); ++i)
    EXPECT_EQ(b.considered[i].name, a.considered[i].name);
}

TEST(GenericPlan, PcfSkipsUnlaunchableCandidatesAndChecksNonEmpty) {
  const auto sample = uniform_box(2048, 10.0f, 3);

  // A device whose shared-memory cap rules out every SHM-SHM tile (2 tiles
  // of 3*B floats; 3072 B already at B=128) but not the register kernels:
  // those candidates must be skipped, not priced or crashed on. The old
  // plan_pcf had no such skip at all.
  vgpu::DeviceSpec tight;
  tight.shared_mem_per_block_cap = 2 * 1024;
  vgpu::Device dev(tight);
  backend::VgpuBackend be(dev);
  backend::IBackend* one[] = {&be};
  const Plan p = plan(one, sample, ProblemDesc::pcf(2.0), 100'000.0);
  ASSERT_NE(p.kernel, nullptr);
  EXPECT_FALSE(p.considered.empty());
  for (const Candidate& c : p.considered) {
    EXPECT_EQ(c.name.find("SHM-SHM"), std::string::npos)
        << "unlaunchable candidate priced: " << c.name;
  }
}

TEST(GenericPlan, ThrowsWhenNoCandidateIsLaunchable) {
  const auto sample = uniform_box(2048, 10.0f, 3);
  // Every plannable SDH variant privatizes its output in shared memory, so
  // a zero cap leaves nothing launchable; the plan must fail loudly rather
  // than return an uninitialized plan (the old plan_pcf did the latter).
  vgpu::DeviceSpec zero;
  zero.shared_mem_per_block_cap = 0;
  vgpu::Device dev(zero);
  backend::VgpuBackend be(dev);
  backend::IBackend* one[] = {&be};
  EXPECT_THROW(plan(one, sample, ProblemDesc::sdh(0.5, 64), 100'000.0),
               CheckError);
}

TEST(PlanCacheKey, BucketsTargetSizeByPowerOfTwo) {
  vgpu::Device dev;
  backend::VgpuBackend be(dev);
  backend::IBackend* one[] = {&be};
  const auto desc = ProblemDesc::sdh(0.5, 64);
  EXPECT_EQ(plan_cache_key(one, desc, 5000.0),
            plan_cache_key(one, desc, 8000.0));  // both round to 8192
  EXPECT_NE(plan_cache_key(one, desc, 8192.0),
            plan_cache_key(one, desc, 8193.0));
  EXPECT_NE(plan_cache_key(one, desc, 5000.0),
            plan_cache_key(one, ProblemDesc::sdh(0.5, 128), 5000.0));
  EXPECT_NE(plan_cache_key(one, desc, 5000.0),
            plan_cache_key(one, ProblemDesc::pcf(2.0), 5000.0));
}

TEST(PlanCacheKey, VgpuPcfKeysAreEqualAcrossRadii) {
  vgpu::Device dev;
  backend::VgpuBackend be(dev);
  backend::IBackend* one[] = {&be};
  EXPECT_EQ(plan_cache_key(one, ProblemDesc::pcf(0.5), 5000.0),
            plan_cache_key(one, ProblemDesc::pcf(1.3), 5000.0));
}

TEST(PlanCacheKey, CpuPcfKeysKeepTheRadius) {
  // The CPU's grid PCF price counts the stencil's candidates, which grow
  // with the radius; a set with a CPU backend in it keys on the radius,
  // down to its last digit.
  backend::CpuBackend::Config cfg;
  cfg.threads = 1;
  cfg.pair_cost_seconds = 1e-9;
  backend::CpuBackend cpu(cfg);
  vgpu::Device dev;
  backend::VgpuBackend gpu(dev);
  backend::IBackend* cpu_only[] = {&cpu};
  backend::IBackend* both[] = {&cpu, &gpu};
  for (const std::span<backend::IBackend* const> set :
       {std::span<backend::IBackend* const>(cpu_only),
        std::span<backend::IBackend* const>(both)}) {
    EXPECT_NE(plan_cache_key(set, ProblemDesc::pcf(0.5), 5000.0),
              plan_cache_key(set, ProblemDesc::pcf(1.3), 5000.0));
    EXPECT_NE(plan_cache_key(set, ProblemDesc::pcf(1.0000001), 5000.0),
              plan_cache_key(set, ProblemDesc::pcf(1.0000004), 5000.0));
  }
}

TEST(PlanCacheKey, SdhKeysDifferByGeometry) {
  vgpu::Device dev;
  backend::VgpuBackend be(dev);
  backend::IBackend* one[] = {&be};
  const std::string key =
      plan_cache_key(one, ProblemDesc::sdh(0.5, 64), 5000.0);
  EXPECT_EQ(key, plan_cache_key(one, ProblemDesc::sdh(0.5, 64), 6000.0));
  EXPECT_NE(key, plan_cache_key(one, ProblemDesc::sdh(0.5, 128), 5000.0));
  EXPECT_NE(key, plan_cache_key(one, ProblemDesc::sdh(0.25, 64), 5000.0));
  EXPECT_NE(key, plan_cache_key(one, ProblemDesc::sdh(0.5000001, 64), 5000.0));
}

TEST(PlanCache, HitCostsZeroCalibrationLaunches) {
  const auto sample = uniform_box(2048, 10.0f, 3);

  vgpu::Device dev;
  backend::VgpuBackend be(dev);
  backend::IBackend* one[] = {&be};
  PlanCache cache;

  const Plan first =
      plan(one, sample, ProblemDesc::pcf(2.0), 50'000.0, &cache);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);
  const std::uint64_t launches_after_first = be.counters().launches;
  EXPECT_GT(launches_after_first, 0u);

  // Same problem, nearby size: memoized — not a single simulation runs.
  const Plan second =
      plan(one, sample, ProblemDesc::pcf(2.0), 60'000.0, &cache);
  EXPECT_EQ(be.counters().launches, launches_after_first);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second.kernel, first.kernel);
  EXPECT_EQ(second.block_size, first.block_size);

  // A new radius moves no vgpu counter, so it prices the same: a hit.
  const Plan third =
      plan(one, sample, ProblemDesc::pcf(1.0), 50'000.0, &cache);
  EXPECT_EQ(be.counters().launches, launches_after_first);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(third.kernel, first.kernel);

  // A different problem shape misses and re-calibrates.
  plan(one, sample, ProblemDesc::sdh(0.5, 64), 50'000.0, &cache);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_GT(be.counters().launches, launches_after_first);
}

TEST(PlanCache, ConcurrentMissesCalibrateExactlyOnce) {
  const auto sample = uniform_box(2048, 10.0f, 3);
  const auto desc = ProblemDesc::pcf(2.0);

  // Calibration runs on cold twins of a device, which report each launch
  // to the device's hook (from several threads at once).
  std::atomic<std::uint64_t> hooked{0};
  const auto count_launches = [&hooked](vgpu::Device& dev) {
    dev.set_launch_observer(
        [&hooked](const vgpu::LaunchRecord&) { hooked.fetch_add(1); });
  };

  // How many launches one calibration round costs, measured solo.
  std::uint64_t solo_launches = 0;
  {
    vgpu::Device dev;
    count_launches(dev);
    backend::VgpuBackend be(dev);
    backend::IBackend* one[] = {&be};
    plan(one, sample, desc, 50'000.0);
    solo_launches = hooked.exchange(0);
  }
  ASSERT_GT(solo_launches, 0u);

  // Two threads, each with its own device/backend (a backend's stream is a
  // single-host-thread object), racing on one shared cache and the same
  // key. The gate
  // must let exactly one of them calibrate; the other returns the stored
  // plan with zero launches of its own — whoever wins the race.
  PlanCache cache;
  constexpr int kThreads = 2;
  std::vector<vgpu::Device> devs(kThreads);
  for (vgpu::Device& d : devs) count_launches(d);
  std::vector<Plan> plans(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      backend::VgpuBackend be(devs[static_cast<std::size_t>(t)]);
      backend::IBackend* one[] = {&be};
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      plans[static_cast<std::size_t>(t)] =
          plan(one, sample, desc, 50'000.0, &cache);
    });
  }
  for (std::thread& th : threads) th.join();

  const std::uint64_t total_launches = hooked.load();
  EXPECT_EQ(total_launches, solo_launches);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(plans[0].kernel, nullptr);
  EXPECT_EQ(plans[0].kernel, plans[1].kernel);
  EXPECT_EQ(plans[0].block_size, plans[1].block_size);
}

TEST(PlanCache, FailedCalibrationReleasesTheGateAndCachesNothing) {
  const auto sample = uniform_box(2048, 10.0f, 3);
  const auto desc = ProblemDesc::pcf(2.0);

  // A backend whose first estimate fails mid-calibration: the plan must
  // propagate the error, cache nothing (no poisoned entry), and drop the
  // single-flight gate so a retry can calibrate.
  vgpu::Device dev;
  backend::VgpuBackend vgpu_be(dev);
  HookedEstimates be(vgpu_be, fail_first(1));
  backend::IBackend* one[] = {&be};
  PlanCache cache;

  EXPECT_THROW(plan(one, sample, desc, 50'000.0, &cache),
               vgpu::DeviceError);
  EXPECT_EQ(cache.size(), 0u);  // a failed calibration must not be cached

  // Schedule spent: the retry calibrates under the released gate.
  const Plan retried = plan(one, sample, desc, 50'000.0, &cache);
  ASSERT_NE(retried.kernel, nullptr);
  EXPECT_EQ(cache.size(), 1u);

  // And the cached plan equals a fault-free calibration's.
  vgpu::Device healthy;
  backend::VgpuBackend healthy_be(healthy);
  backend::IBackend* healthy_one[] = {&healthy_be};
  const Plan want = plan(healthy_one, sample, desc, 50'000.0);
  EXPECT_EQ(retried.kernel, want.kernel);
  EXPECT_EQ(retried.block_size, want.block_size);
}

TEST(PlanCache, ConcurrentFailureDoesNotWedgeTheSingleFlightGate) {
  const auto sample = uniform_box(2048, 10.0f, 3);
  const auto desc = ProblemDesc::pcf(2.0);

  // One backend whose every estimate fails and one healthy backend race on
  // the same key. Whichever wins the gate, the gate must come back out: either the
  // faulty thread fails and the healthy one recalibrates, or the healthy
  // one wins and the faulty thread is served from the cache with zero
  // launches. Both endings leave exactly one good cached plan.
  PlanCache cache;
  vgpu::Device faulty;
  vgpu::Device healthy;

  std::atomic<int> ready{0};
  std::atomic<int> exceptions{0};
  std::atomic<int> planned{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      vgpu::Device& dev = (t == 0) ? faulty : healthy;
      backend::VgpuBackend vgpu_be(dev);
      HookedEstimates be(vgpu_be, fail_first(t == 0 ? INT_MAX : 0));
      backend::IBackend* one[] = {&be};
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      for (int round = 0; round < 2; ++round) {
        try {
          const Plan p = plan(one, sample, desc, 50'000.0, &cache);
          if (p.kernel != nullptr) planned.fetch_add(1);
        } catch (const vgpu::DeviceError&) {
          exceptions.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();  // no deadlock = gate released

  // The healthy thread always ends up with a plan (directly or via cache);
  // every outcome is accounted for, nothing hung or vanished.
  EXPECT_EQ(planned.load() + exceptions.load(), 4);
  EXPECT_GE(planned.load(), 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GenericPlan, ConcurrentPricingEqualsOneAtATime) {
  // plan() prices every candidate at once, in any order the block queue
  // finishes them; what it considers and picks must equal a loop of
  // estimate() calls over the backends, variants and block sizes in
  // order, with the first strictly cheapest candidate winning.
  const auto sample = uniform_box(2048, 10.0f, 5);
  const int buckets = 64;
  const auto desc =
      ProblemDesc::sdh(sample.max_possible_distance() / buckets + 1e-4,
                       buckets);
  const double target_n = 100'000.0;
  backend::CpuBackend::Config cfg;
  cfg.threads = 2;
  cfg.pair_cost_seconds = 1e-9;
  backend::CpuBackend cpu(cfg);
  vgpu::Device dev;
  backend::VgpuBackend gpu(dev);
  backend::IBackend* both[] = {&cpu, &gpu};

  const Plan p = plan(both, sample, desc, target_n);

  std::vector<std::string> names;
  std::vector<double> seconds;
  std::string winner;
  double best = std::numeric_limits<double>::infinity();
  for (backend::IBackend* be : both) {
    const bool vgpu = be->caps().kind == backend::Kind::Vgpu;
    for (const kernels::KernelVariant* v :
         kernels::KernelRegistry::instance().plannable(
             desc.type, be->caps().registry_mask)) {
      for (const int b : vgpu ? std::vector<int>{128, 256, 512}
                              : std::vector<int>{256}) {
        if (!be->can_launch(*v, desc, b)) continue;
        const double est =
            be->estimate(*v, sample, desc, b, target_n).seconds;
        names.push_back(v->name + "/B" + std::to_string(b));
        seconds.push_back(est);
        if (est < best) {
          best = est;
          winner = names.back();
        }
      }
    }
  }
  ASSERT_EQ(p.considered.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(p.considered[i].name, names[i]);
    EXPECT_EQ(p.considered[i].raw_seconds, seconds[i]) << names[i];
  }
  EXPECT_EQ(p.variant_key, winner);
  EXPECT_EQ(p.raw_predicted_seconds, best);
}

TEST(GenericPlan, RethrowsTheFirstFailingCandidatesError) {
  // Candidates fail in whatever order their tasks run; plan() waits for
  // all of them and rethrows the error of the first in candidate order.
  const auto sample = uniform_box(2048, 10.0f, 3);
  const auto desc = ProblemDesc::sdh(0.5, 64);
  vgpu::Device dev;
  backend::VgpuBackend gpu(dev);
  HookedEstimates be(gpu, [](const kernels::KernelVariant& v, int b) {
    if (b != 256) throw CheckError(v.name + "/B" + std::to_string(b));
  });
  backend::IBackend* one[] = {&be};
  const std::string first =
      kernels::KernelRegistry::instance()
          .plannable(desc.type, gpu.caps().registry_mask)
          .front()
          ->name +
      "/B128";
  for (int round = 0; round < 3; ++round) {
    try {
      (void)plan(one, sample, desc, 100'000.0);
      ADD_FAILURE() << "plan() returned although candidates failed";
    } catch (const CheckError& e) {
      EXPECT_EQ(std::string(e.what()), first);
    }
  }
}

TEST(PlanCache, OneFailingCandidateFailsThePlanAndTheNextPlanCalibrates) {
  // One of an SDH miss's 15 vgpu candidates throws: every other candidate
  // still finishes before plan() rethrows, nothing is cached, the gate is
  // released, and the next plan() calibrates all 15.
  const auto sample = uniform_box(2048, 10.0f, 3);
  const auto desc = ProblemDesc::sdh(0.5, 64);
  vgpu::Device dev;
  backend::VgpuBackend gpu(dev);
  HookedEstimates be(gpu, fail_first(1));
  backend::IBackend* one[] = {&be};
  PlanCache cache;

  EXPECT_THROW(plan(one, sample, desc, 50'000.0, &cache), vgpu::DeviceError);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(gpu.counters().launches, 14u * 3u);

  const Plan retried = plan(one, sample, desc, 50'000.0, &cache);
  EXPECT_EQ(retried.considered.size(), 15u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(gpu.counters().launches, (14u + 15u) * 3u);
}

TEST(Framework, RepeatedQueryReusesThePlanWithZeroCalibration) {
  const auto pts = uniform_box(4096, 10.0f, 11);
  TwoBodyFramework fw;

  const auto r1 = fw.sdh(pts, 0.5, 64);
  ASSERT_TRUE(fw.last_plan().has_value());
  EXPECT_EQ(fw.plan_cache().misses(), 1u);
  const std::uint64_t after_first = fw.device().launch_count();

  // Second identical query: plan comes from the cache; the only launches
  // are the chosen kernel itself (main + reduction), no calibration.
  const auto r2 = fw.sdh(pts, 0.5, 64);
  EXPECT_EQ(fw.plan_cache().hits(), 1u);
  const std::uint64_t delta = fw.device().launch_count() - after_first;
  EXPECT_LE(delta, 2u);
  EXPECT_GE(delta, 1u);
  EXPECT_EQ(r1.hist.total(), r2.hist.total());

  // Same for PCF: first call misses, second hits.
  fw.pcf(pts, 2.0);
  EXPECT_EQ(fw.plan_cache().misses(), 2u);
  const std::uint64_t after_pcf = fw.device().launch_count();
  fw.pcf(pts, 2.0);
  EXPECT_EQ(fw.plan_cache().hits(), 2u);
  EXPECT_LE(fw.device().launch_count() - after_pcf, 1u);
}

TEST(Framework, SmallQueriesBypassThePlanCache) {
  const auto pts = uniform_box(256, 10.0f, 11);
  TwoBodyFramework fw;
  fw.sdh(pts, 0.5, 16);
  EXPECT_EQ(fw.plan_cache().hits() + fw.plan_cache().misses(), 0u);
  EXPECT_FALSE(fw.last_plan().has_value());
}

}  // namespace
}  // namespace tbs::core
