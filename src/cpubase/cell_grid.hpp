// Exact cell-list (uniform grid) kernels for the radius-bounded and
// nearest-neighbour problems: the space partitioning the paper calls the
// "first line of defense", applied as in the cell-based pair counting of
// Saldanha et al. Points are binned into cubic cells, and a point is only
// compared with points in neighbouring cells.
//
// Every kernel here returns exactly what its brute-force peer in
// cpu_stats.hpp returns: cell sides carry a rounding margin derived from
// the peers' own float test, so no pair the brute loop would count is ever
// pruned. When the grid cannot prune (no axis has more than three cells,
// so the 27-cell stencil covers every pair), a kernel runs its brute peer.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/points.hpp"
#include "cpubase/cpu_stats.hpp"
#include "cpubase/thread_pool.hpp"

namespace tbs::cpubase {

/// 2-PCF on the cell grid: the count cpu_pcf_tiled returns.
std::uint64_t cpu_pcf_grid(ThreadPool& pool, const PointsSoA& pts,
                           double radius);

/// Distance join on the cell grid: the pair set cpu_distance_join returns,
/// every pair as (i, j) with i < j. Pair order is unspecified.
std::vector<std::pair<std::uint32_t, std::uint32_t>> cpu_distance_join_grid(
    ThreadPool& pool, const PointsSoA& pts, double radius);

/// All-point kNN on the cell grid, searching cells in expanding shells:
/// the rows cpu_knn returns, each owning exactly k floats.
std::vector<std::vector<float>> cpu_knn_grid(ThreadPool& pool,
                                             const PointsSoA& pts, int k);

/// The pairs cpu_pcf_grid examines on `pts`: the stencil's candidate
/// pairs, or all N(N-1)/2 when the grid cannot prune.
double pcf_grid_pairs(const PointsSoA& pts, double radius);

/// Side of the cubic cells the PCF and join kernels bin `pts` into for
/// `radius`, measured from the bounding box's minimum corner; infinite
/// when the grid cannot prune and the kernels run their brute peers.
double pair_grid_side(const PointsSoA& pts, double radius);

}  // namespace tbs::cpubase
