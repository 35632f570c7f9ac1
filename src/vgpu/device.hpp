// Device — the top-level simulated GPU: runs kernel launches block by
// block, warp-lockstep, each block against L2 and read-only cache
// simulators of its own that start empty.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "vgpu/coro.hpp"
#include "vgpu/ctx.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/spec.hpp"
#include "vgpu/stats.hpp"

namespace tbs::vgpu {

class Stream;
class LaunchTarget;

/// Factory invoked once per simulated thread; returns the lane's coroutine.
/// Typical use: a lambda capturing the kernel's buffers by reference.
using KernelBody = std::function<KernelTask(ThreadCtx&)>;

/// What a launch observer learns about one executed launch — the profiler
/// attachment point (obs::observe_launches hooks it). `stats` points at
/// the launch's counters and is valid only for the duration of the
/// callback.
struct LaunchRecord {
  LaunchConfig cfg;
  const KernelStats* stats = nullptr;
  double wall_seconds = 0.0;  ///< host wall time spent simulating
  bool pooled = false;        ///< issued through a Stream (pooled)
};

/// Per-launch callback. Invoked on the thread that issued the launch,
/// after the launch's counters are final and launch_count() is updated.
/// A device's cold twins (Device::cold_twin) call it too, each from the
/// thread that issued its launch, so it may run on several threads at once.
using LaunchObserver = std::function<void(const LaunchRecord&)>;

/// The simulated GPU. Launches are deterministic: every block starts from
/// an empty L2 built from the spec, no cache state carries from one launch
/// to the next, and block counters merge in block-id order — so counters
/// are a pure function of (spec, config, body), the same on every launch
/// and whether blocks run inline (`launch`) or on the block queue
/// (`Stream::launch`). The *cost model* accounts for blocks as
/// if they ran concurrently across SMs (see perfmodel::KernelTimeModel).
class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec{});

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }

  /// Run a kernel over cfg.grid_dim blocks of cfg.block_dim threads.
  /// Returns the exact execution counters (the profiler view).
  ///
  /// Throws CheckError on launch misconfiguration, on kernel deadlock
  /// (barrier that can never be satisfied), and propagates any exception a
  /// kernel body throws.
  KernelStats launch(const LaunchConfig& cfg, const KernelBody& body);

  /// A private device for launches that must stay out of this one's
  /// bookkeeping, such as a planner's calibration: this device's spec, no
  /// fault plan, a launch_count() of its own, and this device's launch
  /// observer, so the launches still reach the hook.
  [[nodiscard]] Device cold_twin() const {
    Device twin(spec_);
    twin.observer_ = observer_;
    return twin;
  }

  /// Kernel launches executed on this device so far; a cold twin counts
  /// its own.
  [[nodiscard]] std::uint64_t launch_count() const noexcept {
    return launches_done_;
  }

  /// Install (or, with nullptr, remove) the per-launch profiler hook. One
  /// observer per device; installing replaces the previous one, and cold
  /// twins made afterwards carry the new one. A device is driven from one
  /// host thread at a time, but its cold twins run on the planner's
  /// threads, so the observer can be called from several threads at once
  /// and must be thread-safe.
  void set_launch_observer(LaunchObserver observer) {
    observer_ = std::move(observer);
  }

  /// Install a chaos schedule on this device: every subsequent launch
  /// (inline or pooled) runs through a FaultInjector executing `plan`.
  /// A plan with no knobs enabled removes injection. Injected failures
  /// leave the device bit-identical to never having launched (no
  /// launch_count() bump, no observer callback).
  void set_fault_plan(const FaultPlan& plan) {
    fault_ = plan.enabled() ? std::make_unique<FaultInjector>(plan) : nullptr;
  }

  /// The active injector (nullptr when no faults are configured) — tests
  /// and chaos harnesses read its FaultStats.
  [[nodiscard]] const FaultInjector* fault_injector() const noexcept {
    return fault_.get();
  }
  /// Mutable access for backends that consume the silent-corruption
  /// decision stream (FaultInjector::next_silent advances its own RNG).
  [[nodiscard]] FaultInjector* fault_injector() noexcept {
    return fault_.get();
  }

 private:
  friend class Stream;
  friend class LaunchTarget;

  KernelStats execute_launch(const LaunchConfig& cfg, const KernelBody& body,
                             bool pooled);

  DeviceSpec spec_;
  std::uint64_t launches_done_ = 0;
  LaunchObserver observer_;
  std::unique_ptr<FaultInjector> fault_;  ///< nullptr = no chaos
};

}  // namespace tbs::vgpu
