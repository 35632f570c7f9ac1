// Spatial Distance Histogram (SDH) kernels — the paper's Type-II exemplar.
//
// Variant matrix (paper Sec. IV):
//   pairwise stage        output stage            paper name
//   ---------------       --------------------    -------------------
//   global loads          global atomics          Naive
//   register + SHM tile   global atomics          Register-SHM
//   register + ROC        global atomics          Register-ROC
//   global loads          privatized SHM + reduce Naive-Out
//   register + SHM tile   privatized SHM + reduce Reg-SHM-Out
//   register + ROC        privatized SHM + reduce Reg-ROC-Out
//   register + SHM tile,
//     load-balanced intra privatized SHM + reduce Reg-SHM-LB   (Sec. IV-E1)
//   register + shuffle    privatized SHM + reduce Shuffle-Out  (Sec. IV-E2)
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/points.hpp"
#include "vgpu/stats.hpp"
#include "vgpu/stream.hpp"

namespace tbs::kernels {

enum class SdhVariant {
  Naive,
  RegShm,
  RegRoc,
  NaiveOut,
  RegShmOut,
  RegRocOut,
  RegShmLb,
  ShuffleOut,
};

/// Human-readable kernel name matching the paper's figures.
const char* to_string(SdhVariant v);

/// True for variants whose output stage is privatized (per-block shared
/// histogram + reduction kernel).
bool is_privatized(SdhVariant v);

/// Dynamic shared-memory bytes the variant needs per block.
std::size_t sdh_shared_bytes(SdhVariant v, int block_size, int buckets);

struct SdhResult {
  Histogram hist;
  vgpu::KernelStats stats;  ///< main kernel (+ reduction kernel if any)
  /// Set by the serving layer when this answer came from the degraded
  /// baseline fallback (planner bypassed) rather than the planned variant.
  bool degraded = false;
};

/// Compute the SDH of `pts` on the simulated device: inline on a Device,
/// or with blocks on the block queue through a Stream (bit-identical
/// counters either way).
///
/// `bucket_width` and `buckets` define the histogram geometry (distances
/// beyond the last bucket clamp into it). `block_size` is both the CUDA
/// block size and the tile size B, as in the paper. N need not be a
/// multiple of B; ragged tails are bounds-checked in the kernels.
SdhResult run_sdh(vgpu::LaunchTarget target, const PointsSoA& pts,
                  double bucket_width, int buckets, SdhVariant variant,
                  int block_size);

/// Ablation of the paper's "one private copy per block" decision
/// (Sec. IV-C: "We tested more private copies per block and found that it
/// does not bring overall performance advantage — data not shown").
/// Runs a Reg-SHM-Out-style kernel with `copies` private histograms per
/// block (warp w updates copy w % copies); copies must divide into the
/// shared-memory budget. copies == 1 is exactly Reg-SHM-Out's strategy.
SdhResult run_sdh_private_copies(vgpu::Device& dev, const PointsSoA& pts,
                                 double bucket_width, int buckets,
                                 int block_size, int copies);

}  // namespace tbs::kernels
