// CpuBackend — the multi-core host substrate behind the IBackend seam.
//
// Promotes src/cpubase from "test oracle" to first-class execution peer:
// launches run each registry variant's CPU functor over an owned thread
// pool (the SDH pair tile, the sub-quadratic tree path, and the exact
// cell-grid PCF, join and kNN), bit-identical to the vgpu kernels because
// every implementation computes distances and buckets the same way.
//
// Cost model (estimate()): the backend calibrates a per-pair cost from one
// timed run of the SDH pair tile on a pool of its own, as wide as the
// backend's (a launch may hold the backend's pool meanwhile, and
// ThreadPool::run_on_all is not reentrant). Each variant declares its work in
// pair-equivalents (KernelVariant::cpu_work): all N(N-1)/2 pairs for the
// brute SDH loop, the stencil's candidate pairs for the grid PCF, a power
// law fitted to the tree's work counters for Tree-SDH. A launch is priced
//   work · pair_cost / threads + overhead
// with threads = 1 for work that does not spread over the pool (the tree
// walk is sequential). The grid PCF's work counts candidates within the
// radius, so a PCF price reads it (Capabilities::pcf_price_reads_radius).
// vgpu estimates are simulated-device seconds while CPU estimates are
// host-clock seconds; the planner compares them directly, which is exactly
// the paper's GPU-vs-CPU framing (model time vs measured baseline).
#pragma once

#include <atomic>
#include <mutex>

#include "backend/backend.hpp"
#include "cpubase/thread_pool.hpp"

namespace tbs::backend {

class CpuBackend final : public IBackend {
 public:
  /// Fixed per-launch overhead floor (pool fan-out, tree build) added to
  /// every estimate so tiny-N placements don't flip on noise.
  static constexpr double kLaunchOverheadSeconds = 50e-6;

  struct Config {
    /// Worker threads; 0 = std::thread::hardware_concurrency().
    unsigned threads = 0;
    /// Per-pair seconds for estimate(); 0 = calibrate from a timed run on
    /// first use. Tests pin this for deterministic placement regimes.
    double pair_cost_seconds = 0.0;
  };

  CpuBackend();  ///< default Config (delegating; GCC rejects `= {}` here)
  explicit CpuBackend(Config cfg);

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

  [[nodiscard]] Estimate estimate(const kernels::KernelVariant& v,
                                  const PointsSoA& sample,
                                  const kernels::ProblemDesc& desc,
                                  int block_size, double target_n) override;

  [[nodiscard]] Counters counters() const override;

  [[nodiscard]] cpubase::ThreadPool& pool() noexcept { return pool_; }

 private:
  /// Calibrated (or configured) per-pair cost, in seconds per core.
  double pair_cost();

  cpubase::ThreadPool pool_;
  Capabilities caps_;
  std::mutex calib_mu_;      ///< guards pair_cost_ first-use calibration
  double pair_cost_ = 0.0;   ///< 0 until calibrated
  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> bytes_staged_{0};
};

}  // namespace tbs::backend
