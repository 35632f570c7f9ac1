#include "vgpu/fault.hpp"

#include <chrono>
#include <thread>

namespace tbs::vgpu {

void FaultInjector::on_launch_begin() {
  double stall_seconds = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!schedule_init_) {
      schedule_left_ = plan_.fail_first_n;
      schedule_init_ = true;
    }
    ++stats_.attempts;

    // Fixed draw order per attempt — transient, stall, corrupt — so the
    // fault sequence depends only on the seed and the attempt ordinal, not
    // on which knobs are enabled or whether an earlier attempt threw.
    const double d_transient = rng_.uniform();
    const double d_stall = rng_.uniform();
    const double d_corrupt = rng_.uniform();
    pending_corrupt_ = d_corrupt < plan_.corrupt_rate;

    if (plan_.device_lost) {
      ++stats_.lost;
      pending_corrupt_ = false;
      throw DeviceLostError("vgpu fault: device lost (injected)");
    }
    if (schedule_left_ > 0) {
      --schedule_left_;
      ++stats_.scheduled;
      pending_corrupt_ = false;
      throw TransientLaunchError(
          "vgpu fault: scheduled launch failure (injected, " +
          std::to_string(schedule_left_) + " left)");
    }
    if (d_transient < plan_.transient_rate) {
      ++stats_.transients;
      pending_corrupt_ = false;
      throw TransientLaunchError(
          "vgpu fault: transient launch failure (injected)");
    }
    if (d_stall < plan_.stall_rate && plan_.stall_seconds > 0.0) {
      ++stats_.stalls;
      stall_seconds = plan_.stall_seconds;
    }
  }
  // Stall outside the lock: a stalled launch must not serialize the fault
  // bookkeeping of other streams on the device.
  if (stall_seconds > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(stall_seconds));
}

void FaultInjector::on_launch_stats(KernelStats& stats) {
  bool fire = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fire = pending_corrupt_;
    pending_corrupt_ = false;
    if (fire) ++stats_.corruptions;
  }
  if (!fire) return;
  // ECC-style single-bit flip in one well-known counter. The caller throws
  // before counting the launch, so the corruption is observable only
  // through this error — a retry re-runs against a pristine device.
  stats.global_loads ^= (std::uint64_t{1} << 17);
  throw EccError(
      "vgpu fault: ECC uncorrectable error — counter 'global_loads' "
      "corrupted (bit 17), launch results discarded");
}

SilentFault FaultInjector::next_silent() {
  const std::lock_guard<std::mutex> lock(mu_);
  // Fixed two draws per call — staged, then result — so the silent-fault
  // sequence is a pure function of (seed, launch ordinal) regardless of
  // which silent knob is enabled.
  const double d_staged = silent_rng_.uniform();
  const double d_result = silent_rng_.uniform();
  if (d_staged < plan_.silent_staged_rate) {
    ++stats_.silent_staged;
    return SilentFault::Staged;
  }
  if (d_result < plan_.silent_result_rate) {
    ++stats_.silent_result;
    return SilentFault::Result;
  }
  return SilentFault::None;
}

}  // namespace tbs::vgpu
