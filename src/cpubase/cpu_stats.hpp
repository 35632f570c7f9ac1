// Multi-core CPU implementations of the 2-BS problems.
//
// These serve two roles:
//  1. the paper's highly-optimized CPU baseline (Sec. IV-D: per-thread
//     private histograms, tree reduction, guided schedule);
//  2. ground truth for every GPU kernel's functional tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/points.hpp"
#include "cpubase/thread_pool.hpp"

namespace tbs::cpubase {

/// Spatial distance histogram: per-thread private histograms merged by a
/// tree reduction after all distance evaluations return.
Histogram cpu_sdh(ThreadPool& pool, const PointsSoA& pts,
                  double bucket_width, std::size_t buckets);

/// 2-point correlation function: unordered pairs with distance < radius.
std::uint64_t cpu_pcf(ThreadPool& pool, const PointsSoA& pts, double radius);

/// Inner-loop tile width of the *_tiled kernels: big enough to amortize
/// the per-tile bookkeeping, small enough that three float lanes of a tile
/// stay resident in L1 alongside the private histogram.
inline constexpr std::size_t kCpuTile = 256;

/// SDH with the j-loop split into fixed-width tiles whose distance and
/// bucket lanes the compiler can vectorize (contiguous loads, no
/// cross-iteration dependency). Consecutive histogram updates go to four
/// private copies per worker, so no increment waits on the previous one;
/// updates are integer adds, so the result is bit-identical to cpu_sdh
/// for any tile order. Runs the portable tile body (sdh_tile_portable)
/// on every host, so it stays a scalar reference: served launches run
/// cpu_sdh_simd, and checks compare them against this loop.
Histogram cpu_sdh_tiled(ThreadPool& pool, const PointsSoA& pts,
                        double bucket_width, std::size_t buckets);

/// The served CPU SDH: each point's run of later points goes through the
/// SDH pair tile (cpubase/sdh_tile.hpp), AVX2 where the host has it.
/// Bit-identical to cpu_sdh.
Histogram cpu_sdh_simd(ThreadPool& pool, const PointsSoA& pts,
                       double bucket_width, std::size_t buckets);

/// 2-PCF with the same tiling; the per-tile hit count folds into a scalar
/// accumulator, so the whole tile body is branch-free and vectorizable.
std::uint64_t cpu_pcf_tiled(ThreadPool& pool, const PointsSoA& pts,
                            double radius);

/// Cross-set SDH: histogram of all |A|·|B| distances between `anchors` and
/// `partners` (the CPU substrate for a cross-shard tile — see src/shard/).
/// Each anchor's partners go through the same pair tile as cpu_sdh_simd,
/// so shard merges are bit-identical to a single-set run over the union.
Histogram cpu_sdh_cross(ThreadPool& pool, const PointsSoA& anchors,
                        const PointsSoA& partners, double bucket_width,
                        std::size_t buckets);

/// Cross-set 2-PCF: count of pairs (a in anchors, b in partners) with
/// dist < radius.
std::uint64_t cpu_pcf_cross(ThreadPool& pool, const PointsSoA& anchors,
                            const PointsSoA& partners, double radius);

/// All-point k-nearest-neighbour distances: for each point, the distances
/// to its k nearest other points, ascending. k must be >= 1.
std::vector<std::vector<float>> cpu_knn(ThreadPool& pool,
                                        const PointsSoA& pts, int k);

/// Gaussian kernel density estimate at every point (excluding self):
/// f(i) = sum_j exp(-|p_i - p_j|^2 / (2 h^2)).
std::vector<double> cpu_kde(ThreadPool& pool, const PointsSoA& pts,
                            double bandwidth);

/// Distance join: all unordered pairs (i, j), i < j, with dist < radius.
/// Pair order in the result is unspecified.
std::vector<std::pair<std::uint32_t, std::uint32_t>> cpu_distance_join(
    ThreadPool& pool, const PointsSoA& pts, double radius);

/// RBF Gram matrix K[i*n+j] = exp(-gamma |p_i - p_j|^2) (row-major, n x n).
std::vector<float> cpu_gram(ThreadPool& pool, const PointsSoA& pts,
                            double gamma);

}  // namespace tbs::cpubase
