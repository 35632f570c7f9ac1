// Fault injection — a deterministic chaos layer for the simulated GPU.
//
// Production pair-statistics services treat device failure as routine:
// launches abort, streams stall, ECC trips. The serve layer's resilience
// machinery (retry, circuit breaker, degraded plans) can only be trusted if
// it is exercised against exactly those failures, reproducibly. A FaultPlan
// describes *when* a device misbehaves — seed-driven transient launch
// failures, stream stalls with a configurable delay, ECC-style counter
// corruption, fail-N-times-then-succeed schedules, and full device loss —
// and a FaultInjector executes the plan at the launch boundary.
//
// Design rules the resilience layer depends on:
//   * Determinism: every launch attempt consumes exactly three RNG draws,
//     so the fault sequence is a pure function of (seed, attempt ordinal)
//     regardless of which knobs are enabled.
//   * No partial effects: an injected fault fires either before the kernel
//     runs or before the launch is counted — a failed launch leaves the
//     device bit-identical to never having launched, so a retry reproduces
//     the fault-free result exactly.
//   * Typed errors: every injected failure is a vgpu::DeviceError subclass
//     carrying `transient()`, which is what the retry policy keys on.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "vgpu/stats.hpp"

namespace tbs::vgpu {

/// Base of every injected (or, in the future, organic) device failure.
/// `transient()` tells the retry layer whether re-running the same launch
/// can plausibly succeed.
class DeviceError : public std::runtime_error {
 public:
  DeviceError(const std::string& msg, bool transient)
      : std::runtime_error(msg), transient_(transient) {}
  [[nodiscard]] bool transient() const noexcept { return transient_; }

 private:
  bool transient_;
};

/// A launch that failed to start (spurious driver/launch error). Retryable.
class TransientLaunchError : public DeviceError {
 public:
  explicit TransientLaunchError(const std::string& msg)
      : DeviceError(msg, /*transient=*/true) {}
};

/// ECC detected an uncorrectable flip in the launch's counters/buffers.
/// The launch's results are discarded; a retry re-runs cleanly.
class EccError : public DeviceError {
 public:
  explicit EccError(const std::string& msg)
      : DeviceError(msg, /*transient=*/true) {}
};

/// The device fell off the bus. Retrying on the same device is pointless.
class DeviceLostError : public DeviceError {
 public:
  explicit DeviceLostError(const std::string& msg)
      : DeviceError(msg, /*transient=*/false) {}
};

/// Declarative chaos schedule for one Device. All probabilities
/// are per launch attempt and independent; the default plan injects
/// nothing.
struct FaultPlan {
  std::uint64_t seed = 0xFA017ULL;  ///< drives every probabilistic knob

  /// P(attempt throws TransientLaunchError before executing).
  double transient_rate = 0.0;
  /// P(attempt stalls `stall_seconds` of host wall time before executing) —
  /// the straggler simulation; the launch still succeeds.
  double stall_rate = 0.0;
  double stall_seconds = 0.0;
  /// P(attempt completes, then its counters are corrupted and EccError is
  /// thrown before the launch is counted).
  double corrupt_rate = 0.0;
  /// Deterministic schedule: the first N attempts throw
  /// TransientLaunchError regardless of the rates, then the schedule is
  /// spent. Composable with the probabilistic knobs.
  std::uint32_t fail_first_n = 0;
  /// Every attempt throws DeviceLostError (a permanently failing device).
  bool device_lost = false;

  /// P(attempt launches against a staged buffer with one flipped mantissa
  /// bit) — a *silent* fault: nothing throws, the kernel simply computes
  /// over slightly-wrong coordinates. Only a redundant re-execution on an
  /// independent backend can catch it (totals still conserve).
  double silent_staged_rate = 0.0;
  /// P(attempt completes and then one bit of the result payload — a
  /// histogram bucket or the pair count — is flipped after the fact).
  /// Silent, but violates total-count conservation, so the invariant
  /// layer can catch it without re-execution.
  double silent_result_rate = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return transient_rate > 0.0 || stall_rate > 0.0 || corrupt_rate > 0.0 ||
           fail_first_n > 0 || device_lost || silent_enabled();
  }

  [[nodiscard]] bool silent_enabled() const noexcept {
    return silent_staged_rate > 0.0 || silent_result_rate > 0.0;
  }
};

/// What an injector has done so far (one consistent snapshot).
struct FaultStats {
  std::uint64_t attempts = 0;    ///< launch attempts seen
  std::uint64_t transients = 0;  ///< TransientLaunchError (rate-driven)
  std::uint64_t scheduled = 0;   ///< TransientLaunchError (fail_first_n)
  std::uint64_t stalls = 0;
  std::uint64_t corruptions = 0;  ///< EccError
  std::uint64_t lost = 0;         ///< DeviceLostError
  std::uint64_t silent_staged = 0;  ///< silent staged-buffer bit flips
  std::uint64_t silent_result = 0;  ///< silent result-payload bit flips

  /// Loud faults only — silent corruptions never throw, so they are not
  /// part of the thrown-fault count the resilience tests key on.
  [[nodiscard]] std::uint64_t faults() const noexcept {
    return transients + scheduled + corruptions + lost;
  }

  [[nodiscard]] std::uint64_t silent() const noexcept {
    return silent_staged + silent_result;
  }
};

/// The silent-corruption decision for one backend-level launch.
enum class SilentFault { None, Staged, Result };

/// Executes a FaultPlan at the launch boundary. Thread-safe (the owning
/// Device may be driven from several serialized worker threads over its
/// lifetime). Hook order per attempt:
///   on_launch_begin()  — may stall, may throw; also pre-draws the
///                        corruption decision so every attempt consumes a
///                        fixed number of RNG draws.
///   on_launch_stats()  — called with the finished counters *before* the
///                        device counts the launch; may corrupt one
///                        counter and throw EccError.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan)
      : plan_(plan), rng_(plan.seed), silent_rng_(plan.seed ^ kSilentSalt) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Launch-entry hook: sleeps on a stall, then throws on a scheduled /
  /// transient / device-lost fault.
  void on_launch_begin();

  /// Post-execution hook: when the pre-drawn corruption decision fired,
  /// flips one bit of one counter in `stats` and throws EccError naming
  /// it. Must run before the device counts the launch.
  void on_launch_stats(KernelStats& stats);

  /// Draws the silent-corruption decision for one backend-level launch.
  /// Uses a second RNG stream (seed ^ salt) with a fixed two draws per
  /// call, so the loud-fault sequence above — pinned at exactly three
  /// draws per attempt — is byte-identical whether or not silent faults
  /// are configured. Staged wins over Result when both fire.
  [[nodiscard]] SilentFault next_silent();

  [[nodiscard]] FaultStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  static constexpr std::uint64_t kSilentSalt = 0x51137F4417ULL;

  mutable std::mutex mu_;
  FaultPlan plan_;
  Rng rng_;                      ///< under mu_
  Rng silent_rng_;               ///< under mu_; independent silent stream
  FaultStats stats_;             ///< under mu_
  std::uint32_t schedule_left_ = 0;  ///< initialized lazily from the plan
  bool schedule_init_ = false;
  bool pending_corrupt_ = false;  ///< drawn at begin, fired at stats
};

}  // namespace tbs::vgpu
