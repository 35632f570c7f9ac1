// Additional Type-I (register-resident output) 2-BS kernels:
// all-point k-nearest-neighbours (small k) and Gaussian kernel density
// estimation. Both keep their per-thread output entirely in registers
// during the pairwise stage, as the paper prescribes for Type-I.
#pragma once

#include <vector>

#include "common/points.hpp"
#include "vgpu/device.hpp"
#include "vgpu/stats.hpp"
#include "vgpu/stream.hpp"

namespace tbs::kernels {

/// Maximum k for the register-resident kNN candidate list; beyond this the
/// output would spill out of registers and the problem becomes Type-II.
inline constexpr int kMaxKnnK = 8;

struct KnnResult {
  /// result[i] = distances to the k nearest neighbours of point i, ascending.
  std::vector<std::vector<float>> neighbours;
  vgpu::KernelStats stats;
  /// Set by the serving layer when this answer came from the degraded
  /// fallback path rather than the first-choice execution.
  bool degraded = false;
};

/// All-point kNN distances with a register-resident candidate list
/// (Register-SHM tiling over every block). Requires 1 <= k <= kMaxKnnK.
/// Each thread stores only its own point's list, so pooled and inline
/// launches give identical lists and counters.
KnnResult run_knn(vgpu::LaunchTarget target, const PointsSoA& pts, int k,
                  int block_size);

struct KdeResult {
  std::vector<float> density;  ///< f(i) = sum_{j != i} exp(-d^2 / (2 h^2))
  vgpu::KernelStats stats;
};

/// Gaussian kernel density estimate at every input point.
KdeResult run_kde(vgpu::Device& dev, const PointsSoA& pts, double bandwidth,
                  int block_size);

}  // namespace tbs::kernels
