// Type-III (global-memory output) 2-BS kernels: distance join with
// potentially quadratic output, and the RBF Gram matrix whose output *is*
// quadratic. These exercise the output strategies the paper defers to
// future work; we implement two and benchmark them against each other:
//   * GlobalCursor — every emitting thread bumps one global atomic cursor;
//   * TwoPhase    — count matches per thread, host prefix-sum, then a second
//                   kernel writes into precomputed exclusive slices
//                   (no atomics at all).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/points.hpp"
#include "vgpu/stats.hpp"
#include "vgpu/stream.hpp"

namespace tbs::kernels {

enum class JoinVariant { GlobalCursor, TwoPhase };

const char* to_string(JoinVariant v);

struct JoinResult {
  /// Unordered matching pairs (i < j); order unspecified.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  vgpu::KernelStats stats;
  /// Set by the serving layer when this answer came from the degraded
  /// fallback path rather than the first-choice execution.
  bool degraded = false;
};

/// Distance join: emit all pairs with dist < radius into global memory.
///
/// Through a Stream the blocks run on the block queue. TwoPhase emits into
/// precomputed exclusive slices, so pairs *and* counters are bit-identical
/// to an inline Device launch. GlobalCursor consumes the returned old value
/// of a contended atomic cursor, so pooled block scheduling permutes
/// emission order: the pair *set* and per-thread operation counts are
/// identical, but pair order and the traffic/coalescing counters (which
/// depend on the emitted addresses) are not — the same caveat as on real
/// hardware.
JoinResult run_distance_join(vgpu::LaunchTarget target, const PointsSoA& pts,
                             double radius, JoinVariant variant,
                             int block_size);

struct GramResult {
  std::vector<float> matrix;  ///< row-major n x n, K[i*n+j]
  vgpu::KernelStats stats;
};

/// RBF Gram matrix K[i,j] = exp(-gamma * |p_i - p_j|^2). Output is written
/// transposed per-thread so warp stores coalesce (the matrix is symmetric,
/// so the result is identical). Disjoint stores only, so the matrix and
/// counters are bit-identical inline and pooled.
GramResult run_gram(vgpu::LaunchTarget target, const PointsSoA& pts,
                    double gamma, int block_size);

}  // namespace tbs::kernels
