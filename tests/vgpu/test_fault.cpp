// Fault-injection layer: deterministic chaos schedules, typed errors, and
// the retry-safety contract — a failed launch leaves the device bit-identical
// to never having launched, so a retry reproduces the fault-free result.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/stream.hpp"

namespace tbs::vgpu {
namespace {

KernelBody store_body(DeviceBuffer<int>& out, int value) {
  return [&out, value](ThreadCtx& ctx) -> KernelTask {
    co_await out.store(ctx, static_cast<std::size_t>(ctx.global_thread_id()),
                       value);
  };
}

// An atomic-heavy body so the L2 / contention counters depend on device
// state — the sharpest probe of "a failed launch mutated nothing".
KernelBody atomic_body(DeviceBuffer<std::uint32_t>& hist) {
  return [&hist](ThreadCtx& ctx) -> KernelTask {
    const auto bucket =
        static_cast<std::size_t>(ctx.global_thread_id()) % hist.size();
    co_await hist.atomic_add(ctx, bucket, 1u);
  };
}

TEST(FaultPlan, DefaultPlanIsDisabled) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  Device dev;
  dev.set_fault_plan(FaultPlan{});  // disabled plan clears the injector
  EXPECT_EQ(dev.fault_injector(), nullptr);

  FaultPlan armed;
  armed.fail_first_n = 1;
  EXPECT_TRUE(armed.enabled());
  dev.set_fault_plan(armed);
  EXPECT_NE(dev.fault_injector(), nullptr);
}

TEST(FaultInjection, FailFirstNThenSucceeds) {
  Device dev;
  FaultPlan plan;
  plan.fail_first_n = 2;
  dev.set_fault_plan(plan);

  DeviceBuffer<int> out(64, -1);
  EXPECT_THROW(dev.launch(LaunchConfig{1, 64, 0}, store_body(out, 7)),
               TransientLaunchError);
  EXPECT_THROW(dev.launch(LaunchConfig{1, 64, 0}, store_body(out, 7)),
               TransientLaunchError);
  EXPECT_EQ(out.host()[0], -1);  // the failed attempts never executed
  EXPECT_NO_THROW(dev.launch(LaunchConfig{1, 64, 0}, store_body(out, 7)));
  EXPECT_EQ(out.host()[0], 7);

  const FaultStats fs = dev.fault_injector()->stats();
  EXPECT_EQ(fs.attempts, 3u);
  EXPECT_EQ(fs.scheduled, 2u);
  EXPECT_EQ(fs.faults(), 2u);
}

TEST(FaultInjection, FailedLaunchLeavesDeviceBitIdentical) {
  const LaunchConfig cfg{4, 128, 0};

  // Ground truth: a healthy device.
  Device healthy;
  DeviceBuffer<std::uint32_t> hist_ok(16, 0);
  const KernelStats want = healthy.launch(cfg, atomic_body(hist_ok));

  // Faulty device: one scheduled failure, then the retry must reproduce
  // the fault-free launch exactly — counters and memory both.
  Device faulty;
  FaultPlan plan;
  plan.fail_first_n = 1;
  faulty.set_fault_plan(plan);
  DeviceBuffer<std::uint32_t> hist_faulty(16, 0);
  EXPECT_THROW(faulty.launch(cfg, atomic_body(hist_faulty)),
               TransientLaunchError);
  EXPECT_EQ(faulty.launch_count(), 0u);  // the failure never counted
  const KernelStats got = faulty.launch(cfg, atomic_body(hist_faulty));

  EXPECT_EQ(got, want);
  EXPECT_EQ(faulty.launch_count(), 1u);
  for (std::size_t i = 0; i < hist_ok.size(); ++i)
    EXPECT_EQ(hist_ok.host()[i], hist_faulty.host()[i]) << "bucket " << i;
}

TEST(FaultInjection, TransientSequenceIsAPureFunctionOfTheSeed) {
  const auto run_sequence = [](std::uint64_t seed) {
    Device dev;
    FaultPlan plan;
    plan.seed = seed;
    plan.transient_rate = 0.5;
    dev.set_fault_plan(plan);
    DeviceBuffer<int> out(32, 0);
    std::vector<bool> failed;
    for (int i = 0; i < 32; ++i) {
      try {
        dev.launch(LaunchConfig{1, 32, 0}, store_body(out, i));
        failed.push_back(false);
      } catch (const TransientLaunchError&) {
        failed.push_back(true);
      }
    }
    return failed;
  };

  const auto a = run_sequence(42);
  const auto b = run_sequence(42);
  EXPECT_EQ(a, b);  // same seed, same fault sequence — reproducible chaos
  // And the rate knob actually fires both ways at 50%.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);

  const auto c = run_sequence(43);
  EXPECT_NE(a, c);  // different seed, different schedule
}

TEST(FaultInjection, EccCorruptionThrowsBeforeDeviceStateReplays) {
  Device dev;
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  dev.set_fault_plan(plan);

  DeviceBuffer<std::uint32_t> hist(16, 0);
  EXPECT_THROW(dev.launch(LaunchConfig{2, 64, 0}, atomic_body(hist)),
               EccError);
  EXPECT_EQ(dev.launch_count(), 0u);
  EXPECT_EQ(dev.fault_injector()->stats().corruptions, 1u);

  // Disarm and re-run: the device state must equal a fresh device's — the
  // corrupted launch replayed nothing into the L2.
  dev.set_fault_plan(FaultPlan{});
  DeviceBuffer<std::uint32_t> hist2(16, 0);
  const KernelStats after = dev.launch(LaunchConfig{2, 64, 0},
                                       atomic_body(hist2));
  Device fresh;
  DeviceBuffer<std::uint32_t> hist3(16, 0);
  const KernelStats want = fresh.launch(LaunchConfig{2, 64, 0},
                                        atomic_body(hist3));
  EXPECT_EQ(after, want);
}

TEST(FaultInjection, DeviceLostIsPermanentAndNotTransient) {
  Device dev;
  FaultPlan plan;
  plan.device_lost = true;
  dev.set_fault_plan(plan);
  DeviceBuffer<int> out(32, 0);

  for (int i = 0; i < 3; ++i) {
    try {
      dev.launch(LaunchConfig{1, 32, 0}, store_body(out, 1));
      FAIL() << "a lost device must not execute";
    } catch (const DeviceError& e) {
      EXPECT_FALSE(e.transient());
    }
  }
  EXPECT_EQ(dev.fault_injector()->stats().lost, 3u);
}

TEST(FaultInjection, StallDelaysTheLaunchButItStillSucceeds) {
  Device dev;
  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall_seconds = 0.005;
  dev.set_fault_plan(plan);

  DeviceBuffer<int> out(32, -1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(dev.launch(LaunchConfig{1, 32, 0}, store_body(out, 9)));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(out.host()[0], 9);  // a straggler, not a failure
  EXPECT_GE(elapsed, 0.004);
  EXPECT_EQ(dev.fault_injector()->stats().stalls, 1u);
}

TEST(FaultInjection, DeviceFaultFailsAStreamLaunchAndTheStreamRecovers) {
  Device dev;
  Stream stream(dev);
  FaultPlan plan;
  plan.fail_first_n = 1;
  dev.set_fault_plan(plan);

  // The device's plan sees pooled launches exactly like inline ones.
  DeviceBuffer<int> out(64, -1);
  EXPECT_THROW(stream.launch(LaunchConfig{1, 64, 0}, store_body(out, 1)),
               TransientLaunchError);
  EXPECT_EQ(out.host()[0], -1);

  // The schedule is spent; the stream is serviceable again.
  EXPECT_NO_THROW(stream.launch(LaunchConfig{1, 64, 0}, store_body(out, 3)));
  EXPECT_EQ(out.host()[0], 3);
  EXPECT_EQ(dev.fault_injector()->stats().scheduled, 1u);
}

TEST(SilentFaults, SequenceIsAPureFunctionOfTheSeed) {
  FaultPlan plan;
  plan.seed = 77;
  plan.silent_staged_rate = 0.3;
  plan.silent_result_rate = 0.3;

  const auto draw = [&] {
    FaultInjector inj(plan);
    std::vector<SilentFault> seq;
    seq.reserve(64);
    for (int i = 0; i < 64; ++i) seq.push_back(inj.next_silent());
    return seq;
  };
  const std::vector<SilentFault> a = draw();
  const std::vector<SilentFault> b = draw();
  EXPECT_EQ(a, b);  // same seed, same plan → identical corruption schedule

  // Both kinds actually occur at these rates over 64 draws.
  std::uint64_t staged = 0, result = 0;
  for (const SilentFault f : a) {
    staged += f == SilentFault::Staged ? 1u : 0u;
    result += f == SilentFault::Result ? 1u : 0u;
  }
  EXPECT_GT(staged, 0u);
  EXPECT_GT(result, 0u);

  plan.seed = 78;  // a different seed reshuffles the schedule
  FaultInjector other(plan);
  std::vector<SilentFault> c;
  for (int i = 0; i < 64; ++i) c.push_back(other.next_silent());
  EXPECT_NE(a, c);
}

TEST(SilentFaults, DoNotPerturbTheLoudFaultSequence) {
  // The pinned determinism contract: the loud stream consumes exactly
  // three draws per attempt from its own RNG, so enabling silent rates
  // must leave the thrown-fault schedule byte-identical.
  const auto loud_schedule = [](const FaultPlan& plan) {
    FaultInjector inj(plan);
    std::vector<bool> threw;
    threw.reserve(128);
    for (int i = 0; i < 128; ++i) {
      bool t = false;
      try {
        inj.on_launch_begin();
      } catch (const DeviceError&) {
        t = true;
      }
      threw.push_back(t);
      (void)inj.next_silent();  // interleave like a real backend launch
    }
    return threw;
  };
  FaultPlan quiet;
  quiet.seed = 99;
  quiet.transient_rate = 0.25;
  FaultPlan noisy = quiet;
  noisy.silent_staged_rate = 0.5;
  noisy.silent_result_rate = 0.5;
  EXPECT_EQ(loud_schedule(quiet), loud_schedule(noisy));
}

TEST(SilentFaults, StatsCountSilentCorruptionsApartFromThrownFaults) {
  FaultPlan plan;
  plan.silent_result_rate = 1.0;
  FaultInjector inj(plan);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(inj.on_launch_begin());  // silent faults never throw
    EXPECT_EQ(inj.next_silent(), SilentFault::Result);
  }
  const FaultStats stats = inj.stats();
  EXPECT_EQ(stats.silent_result, 5u);
  EXPECT_EQ(stats.silent_staged, 0u);
  EXPECT_EQ(stats.silent(), 5u);
  EXPECT_EQ(stats.faults(), 0u);  // the resilience layer never sees them
  EXPECT_EQ(stats.attempts, 5u);

  // Staged wins when both fire every time.
  FaultPlan both;
  both.silent_staged_rate = 1.0;
  both.silent_result_rate = 1.0;
  FaultInjector tie(both);
  EXPECT_EQ(tie.next_silent(), SilentFault::Staged);
  EXPECT_EQ(tie.stats().silent_staged, 1u);
}

}  // namespace
}  // namespace tbs::vgpu
