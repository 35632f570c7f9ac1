// 2-point correlation function (2-PCF) kernels — the paper's Type-I
// exemplar: count pairs closer than a radius r. Output is a single scalar
// per thread kept in a register (the Type-I output pattern), written out
// once with a coalesced store and summed on the host.
//
// Variants match paper Sec. IV-B:
//   Naive        — both operands from global memory every pair;
//   SHM-SHM      — blocks L and R both tiled in shared memory;
//   Register-SHM — anchor datum in a register, R tiled in shared memory;
//   Register-ROC — anchor in a register, R through the read-only cache.
#pragma once

#include <cstdint>

#include "common/points.hpp"
#include "vgpu/stats.hpp"
#include "vgpu/stream.hpp"

namespace tbs::kernels {

enum class PcfVariant { Naive, ShmShm, RegShm, RegRoc };

/// Human-readable kernel name matching the paper's figures.
const char* to_string(PcfVariant v);

/// Dynamic shared-memory bytes the variant needs per block of `block_size`.
std::size_t pcf_shared_bytes(PcfVariant v, int block_size);

struct PcfResult {
  std::uint64_t pairs_within = 0;  ///< unordered pairs with dist < radius
  vgpu::KernelStats stats;
  /// Set by the serving layer when this answer came from the degraded
  /// baseline fallback (planner bypassed) rather than the planned variant.
  bool degraded = false;
};

/// Count pairs of `pts` within `radius` on the simulated device (inline on
/// a Device, pooled through a Stream; bit-identical counters).
PcfResult run_pcf(vgpu::LaunchTarget target, const PointsSoA& pts,
                  double radius, PcfVariant variant, int block_size);

/// Register-SHM pairwise stage + a warp-level butterfly reduction of the
/// per-thread counts via shuffle-XOR exchanges, so only one lane per warp
/// writes to global memory (32x fewer output stores). An extension of the
/// paper's register-content-sharing theme (Sec. IV-E2) to the *output*
/// stage of Type-I problems.
PcfResult run_pcf_warpsum(vgpu::LaunchTarget target, const PointsSoA& pts,
                          double radius, int block_size);

}  // namespace tbs::kernels
