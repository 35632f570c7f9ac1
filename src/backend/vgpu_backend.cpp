#include "backend/vgpu_backend.hpp"

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "kernels/cross.hpp"
#include "perfmodel/counts.hpp"
#include "perfmodel/timemodel.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/fault.hpp"

namespace tbs::backend {

namespace {

Capabilities caps_for(const vgpu::DeviceSpec& spec) {
  Capabilities c;
  c.kind = Kind::Vgpu;
  c.name = std::string("vgpu:") + spec.name;
  c.registry_mask = kernels::kBackendVgpu;
  c.parallel_units = spec.sm_count;
  c.shared_mem_per_block_cap = spec.shared_mem_per_block_cap;
  // The plannable PCF kernels' addresses come from indices, and the radius
  // only decides a register increment (kernels/pcf.cpp), so no counter
  // estimate() fits moves with it.
  c.pcf_price_reads_radius = false;
  return c;
}

/// Truncate the sample to n points (cycling if the sample is smaller).
PointsSoA take(const PointsSoA& sample, std::size_t n) {
  check(!sample.empty(), "VgpuBackend::estimate: empty sample");
  PointsSoA out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(sample[i % sample.size()]);
  return out;
}

/// Consumes the device injector's silent-corruption stream for one launch.
vgpu::SilentFault next_silent(vgpu::Device& dev) {
  vgpu::FaultInjector* inj = dev.fault_injector();
  if (inj == nullptr || !inj->plan().silent_enabled())
    return vgpu::SilentFault::None;
  return inj->next_silent();
}

/// Silent staged-buffer corruption: flip the top mantissa bit of one
/// coordinate before the kernel sees it. The perturbation is large (up to
/// 50% of the value) so the corrupted histogram actually differs, yet the
/// value stays finite — nothing downstream throws, and the total pair
/// count still conserves, which is exactly what makes this fault invisible
/// to the invariant layer and detectable only by a cross-backend audit.
void corrupt_staged(PointsSoA& pts) {
  std::span<float> xs = pts.x();
  float& v = xs[pts.size() / 2];
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= (std::uint32_t{1} << 22);
  std::memcpy(&v, &bits, sizeof bits);
}

/// Silent result corruption: flip the low bit of the first histogram
/// bucket (or of the pair count). This breaks total-count conservation by
/// exactly one, so the invariant layer can catch it without re-execution.
void corrupt_result(kernels::KernelOutput& out) {
  if (out.hist != nullptr && out.hist->bucket_count() > 0)
    out.hist->set_count(0, (*out.hist)[0] ^ std::uint64_t{1});
  else if (out.pairs != nullptr)
    *out.pairs ^= std::uint64_t{1};
}

}  // namespace

VgpuBackend::VgpuBackend(vgpu::Device& dev)
    : stream_(dev), caps_(caps_for(dev.spec())) {}

bool VgpuBackend::can_launch(const kernels::KernelVariant& v,
                             const kernels::ProblemDesc& desc,
                             int block_size) const {
  if (!v.supports(kernels::kBackendVgpu)) return false;
  return v.shared_bytes(block_size, desc.buckets) <=
         caps_.shared_mem_per_block_cap;
}

std::size_t VgpuBackend::stage(const PointsSoA& pts) {
  // The kernels own their working-set staging; this round-trip allocates a
  // device buffer per coordinate lane so the transfer is accounted (and the
  // allocator's alignment path exercised) without double-owning the data.
  const std::size_t bytes = 3 * pts.size() * sizeof(float);
  vgpu::DeviceBuffer<float> x(pts.x());
  vgpu::DeviceBuffer<float> y(pts.y());
  vgpu::DeviceBuffer<float> z(pts.z());
  bytes_staged_.fetch_add(bytes, std::memory_order_relaxed);
  return bytes;
}

vgpu::KernelStats VgpuBackend::launch(const kernels::KernelVariant& v,
                                      const PointsSoA& pts,
                                      const kernels::ProblemDesc& desc,
                                      int block_size,
                                      kernels::KernelOutput& out) {
  check(v.launch != nullptr,
        "VgpuBackend: variant has no vgpu launch functor");
  const vgpu::SilentFault silent = next_silent(stream_.device());
  vgpu::KernelStats stats;
  if (silent == vgpu::SilentFault::Staged && !pts.empty()) {
    PointsSoA poisoned = pts;
    corrupt_staged(poisoned);
    stats = v.launch(stream_, poisoned, desc, block_size, out);
  } else {
    stats = v.launch(stream_, pts, desc, block_size, out);
  }
  if (silent == vgpu::SilentFault::Result) corrupt_result(out);
  launches_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

vgpu::KernelStats VgpuBackend::launch_cross(const PointsSoA& anchors,
                                            const PointsSoA& partners,
                                            const kernels::ProblemDesc& desc,
                                            int block_size,
                                            kernels::KernelOutput& out) {
  const vgpu::SilentFault silent = next_silent(stream_.device());
  const PointsSoA* a = &anchors;
  PointsSoA poisoned;
  if (silent == vgpu::SilentFault::Staged && !anchors.empty()) {
    poisoned = anchors;
    corrupt_staged(poisoned);
    a = &poisoned;
  }
  vgpu::KernelStats stats;
  if (desc.type == kernels::ProblemType::Sdh) {
    kernels::SdhResult r =
        kernels::run_sdh_cross(stream_, *a, partners, desc.bucket_width,
                               desc.buckets, block_size);
    if (out.hist != nullptr) *out.hist = std::move(r.hist);
    stats = r.stats;
  } else {
    kernels::PcfResult r = kernels::run_pcf_cross(stream_, *a, partners,
                                                  desc.radius, block_size);
    if (out.pairs != nullptr) *out.pairs = r.pairs_within;
    stats = r.stats;
  }
  if (silent == vgpu::SilentFault::Result) corrupt_result(out);
  launches_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

Estimate VgpuBackend::estimate(const kernels::KernelVariant& v,
                               const PointsSoA& sample,
                               const kernels::ProblemDesc& desc,
                               int block_size, double target_n) {
  check(v.launch != nullptr,
        "VgpuBackend: variant has no vgpu launch functor");
  // For a fixed B every index-determined counter is one degree-2
  // polynomial in M = N/B whichever three multiples of B feed it, so the
  // three smallest (M = 1, 2, 3) pin it at the least simulation.
  const double b = static_cast<double>(block_size);
  const std::array<double, 3> ns = {b, 2 * b, 3 * b};
  std::array<vgpu::KernelStats, 3> stats;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const PointsSoA pts = take(sample, static_cast<std::size_t>(ns[i]));
    // Each calibration launch runs on a twin of the device: no fault plan,
    // not in the device's launch_count(), and free to run while the device
    // serves; it still reports to its launch hook.
    vgpu::Device cold = stream_.device().cold_twin();
    vgpu::Stream lane(cold);
    kernels::KernelOutput sink;  // calibration discards outputs
    stats[i] = v.launch(lane, pts, desc, block_size, sink);
    launches_.fetch_add(1, std::memory_order_relaxed);
  }
  const perfmodel::StatsPoly poly(ns, stats);
  std::vector<std::string> clamped;
  const auto report = perfmodel::model_time(stream_.device().spec(),
                                            poly.predict(target_n, &clamped));
  return Estimate{report.seconds, report.bottleneck, clamped.size()};
}

Counters VgpuBackend::counters() const {
  Counters c;
  c.launches = launches_.load(std::memory_order_relaxed);
  // Every launch on the device passes its injector, so its loud-fault
  // count covers the device's other lanes as well as this one.
  if (const vgpu::FaultInjector* inj = stream_.device().fault_injector())
    c.faults = inj->stats().faults();
  c.bytes_staged = bytes_staged_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace tbs::backend
