#include "backend/cpu_backend.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/datagen.hpp"
#include "common/error.hpp"
#include "cpubase/cpu_stats.hpp"

namespace tbs::backend {

namespace {

/// Timed-calibration size: big enough (~8.4M pairs) that pool fan-out
/// overhead is amortized out of the measured per-pair cost.
constexpr std::size_t kPairCalibN = 4096;

double pairs_of(double n) { return n * (n - 1.0) / 2.0; }

}  // namespace

CpuBackend::CpuBackend() : CpuBackend(Config{}) {}

CpuBackend::CpuBackend(Config cfg)
    : pool_(cfg.threads), pair_cost_(cfg.pair_cost_seconds) {
  caps_.kind = Kind::Cpu;
  caps_.name = "cpu:" + std::to_string(pool_.size()) + "w";
  caps_.registry_mask = kernels::kBackendCpu;
  caps_.parallel_units = static_cast<int>(pool_.size());
  caps_.shared_mem_per_block_cap = 0;  // not applicable
}

bool CpuBackend::can_launch(const kernels::KernelVariant& v,
                            const kernels::ProblemDesc& /*desc*/,
                            int /*block_size*/) const {
  return v.supports(kernels::kBackendCpu);
}

std::size_t CpuBackend::stage(const PointsSoA& pts) {
  // Host data is already where the loops read it; the "upload" is a cache
  // warm over the three lanes, accounted like a transfer.
  const std::size_t bytes = 3 * pts.size() * sizeof(float);
  float sink = 0.0f;
  for (const float v : pts.x()) sink += v;
  for (const float v : pts.y()) sink += v;
  for (const float v : pts.z()) sink += v;
  // The sum only exists to keep the walk from being optimized away.
  if (std::isnan(sink)) check(false, "CpuBackend::stage: NaN coordinates");
  bytes_staged_.fetch_add(bytes, std::memory_order_relaxed);
  return bytes;
}

vgpu::KernelStats CpuBackend::launch(const kernels::KernelVariant& v,
                                     const PointsSoA& pts,
                                     const kernels::ProblemDesc& desc,
                                     int block_size,
                                     kernels::KernelOutput& out) {
  check(v.launch_cpu != nullptr,
        "CpuBackend: variant has no CPU launch functor");
  vgpu::KernelStats stats = v.launch_cpu(pool_, pts, desc, block_size, out);
  launches_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

vgpu::KernelStats CpuBackend::launch_cross(const PointsSoA& anchors,
                                           const PointsSoA& partners,
                                           const kernels::ProblemDesc& desc,
                                           int block_size,
                                           kernels::KernelOutput& out) {
  if (desc.type == kernels::ProblemType::Sdh) {
    Histogram h = cpubase::cpu_sdh_cross(
        pool_, anchors, partners, desc.bucket_width,
        static_cast<std::size_t>(desc.buckets));
    if (out.hist != nullptr) *out.hist = std::move(h);
  } else {
    const std::uint64_t pairs =
        cpubase::cpu_pcf_cross(pool_, anchors, partners, desc.radius);
    if (out.pairs != nullptr) *out.pairs = pairs;
  }
  launches_.fetch_add(1, std::memory_order_relaxed);
  // Host-side facts only, same shape as the registry's CPU launches: the
  // simulated counters stay zero so obs::check_drift skips these stats.
  vgpu::KernelStats stats;
  stats.launches = 1;
  stats.block_dim = block_size;
  return stats;
}

double CpuBackend::pair_cost() {
  // Invariant: every read of pair_cost_ happens under calib_mu_, and the
  // value published is always strictly positive — a concurrent estimate()
  // during first-use calibration either runs the calibration itself or
  // blocks here and then reads the finished value; it can never observe a
  // torn or zero cost.
  const std::lock_guard<std::mutex> lock(calib_mu_);
  if (pair_cost_ > 0.0) return pair_cost_;
  // One timed run of the served SDH loop (the pair tile every SDH variant
  // launches) on synthetic data; the histogram geometry is irrelevant to
  // the per-pair cost. A pool of its own: a launch may hold pool_.
  const PointsSoA pts = uniform_box(kPairCalibN, 10.0f, /*seed=*/42);
  const double width = pts.max_possible_distance() / 64 + 1e-4;
  cpubase::ThreadPool timing_pool(pool_.size());
  const auto t0 = std::chrono::steady_clock::now();
  (void)cpubase::cpu_sdh_simd(timing_pool, pts, width, 64);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // A coarse steady_clock can measure the run as 0s; clamping keeps the
  // published cost positive so the "calibrated" state is unambiguous and
  // estimates never price all candidates at zero.
  pair_cost_ = std::max(1e-12, seconds * static_cast<double>(pool_.size()) /
                                   pairs_of(static_cast<double>(kPairCalibN)));
  return pair_cost_;
}

Estimate CpuBackend::estimate(const kernels::KernelVariant& v,
                              const PointsSoA& sample,
                              const kernels::ProblemDesc& desc,
                              int /*block_size*/, double target_n) {
  check(v.cpu_work != nullptr,
        "CpuBackend::estimate: variant declares no CPU work model");
  const kernels::CpuWork work = v.cpu_work(sample, desc, target_n);
  const double threads =
      work.pooled ? static_cast<double>(pool_.size()) : 1.0;
  return Estimate{work.pairs * pair_cost() / threads + kLaunchOverheadSeconds,
                  work.model};
}

Counters CpuBackend::counters() const {
  Counters c;
  c.launches = launches_.load(std::memory_order_relaxed);
  c.bytes_staged = bytes_staged_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace tbs::backend
