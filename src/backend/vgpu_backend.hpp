// VgpuBackend — the simulated-GPU substrate behind the IBackend seam.
//
// A thin adapter: launches go through the backend's own vgpu::Stream onto
// the device (blocks on the block queue), so everything attached to the
// Device — fault injection plans, launch observers, the launch counter —
// sees them. counters().faults is the device injector's loud-fault count,
// which covers every lane onto the device.
//
// estimate() never touches the device's state: each calibration launch
// runs on a cold twin of the device (Device::cold_twin), so an estimate is
// a function of (variant, block, sample, problem, spec) alone and can run
// on any thread while the device serves. The twins report to the device's
// launch observer and count in counters().launches, but not in the
// device's launch_count(), and no fault plan or silent fault reaches them.
#pragma once

#include <atomic>

#include "backend/backend.hpp"
#include "vgpu/device.hpp"
#include "vgpu/stream.hpp"

namespace tbs::backend {

class VgpuBackend final : public IBackend {
 public:
  explicit VgpuBackend(vgpu::Device& dev);

  [[nodiscard]] const Capabilities& caps() const override { return caps_; }

  [[nodiscard]] bool can_launch(const kernels::KernelVariant& v,
                                const kernels::ProblemDesc& desc,
                                int block_size) const override;

  std::size_t stage(const PointsSoA& pts) override;

  vgpu::KernelStats launch(const kernels::KernelVariant& v,
                           const PointsSoA& pts,
                           const kernels::ProblemDesc& desc, int block_size,
                           kernels::KernelOutput& out) override;

  vgpu::KernelStats launch_cross(const PointsSoA& anchors,
                                 const PointsSoA& partners,
                                 const kernels::ProblemDesc& desc,
                                 int block_size,
                                 kernels::KernelOutput& out) override;

  /// Eqs. 2–7 pricing: three calibration launches of one, two and three
  /// blocks (N = B, 2B, 3B, the smallest sizes that pin the degree-2
  /// StatsPoly in M = N/B), each on a cold twin of the device, counter
  /// extrapolation to target_n, perfmodel::model_time on the device spec.
  [[nodiscard]] Estimate estimate(const kernels::KernelVariant& v,
                                  const PointsSoA& sample,
                                  const kernels::ProblemDesc& desc,
                                  int block_size, double target_n) override;
  [[nodiscard]] Counters counters() const override;

  [[nodiscard]] vgpu::Device& device() noexcept { return stream_.device(); }
  [[nodiscard]] vgpu::Stream& stream() noexcept { return stream_; }

 private:
  vgpu::Stream stream_;
  Capabilities caps_;
  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> bytes_staged_{0};
};

}  // namespace tbs::backend
