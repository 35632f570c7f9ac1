// Cross-set 2-BS kernels — the pairwise work between two *different* point
// sets, the unit of work a cross-shard tile executes (see src/shard/).
//
// A K-way sharded run decomposes the triangular all-pairs workload into K
// diagonal tiles (each an ordinary single-set kernel over one shard) and
// K·(K−1)/2 cross tiles (every unordered pair with one endpoint in shard
// A and one in shard B — a dense |A|×|B| rectangle, no triangular
// predicate). These kernels compute one cross tile:
//
//   SDH  — anchors from A in registers, partners from B through the
//          read-only cache, privatized per-block shared histogram flushed
//          to global scratch + a reduction kernel (the paper's winning
//          Reg-ROC-Out recipe, re-derived for the rectangular shape);
//   PCF  — same pairwise walk with the Type-I output pattern: a per-thread
//          count in a register, one coalesced store, host-side sum.
//
// Bucketing goes through kernels::bucket_of (double-precision division),
// so summing diagonal + cross partials is bit-identical to one
// single-device run over the union — the shard merge correctness contract.
#pragma once

#include "common/points.hpp"
#include "kernels/pcf.hpp"
#include "kernels/sdh.hpp"
#include "vgpu/stream.hpp"

namespace tbs::kernels {

/// Dynamic shared-memory bytes of the cross-SDH kernel (the privatized
/// histogram; the pairwise stage uses registers + ROC only).
std::size_t sdh_cross_shared_bytes(int block_size, int buckets);

/// Histogram of all |A|·|B| cross distances between `anchors` and
/// `partners`. Both sets must be non-empty; the result histogram geometry
/// is (bucket_width, buckets), identical to run_sdh's.
SdhResult run_sdh_cross(vgpu::LaunchTarget target, const PointsSoA& anchors,
                        const PointsSoA& partners, double bucket_width,
                        int buckets, int block_size);

/// Count of cross pairs (a in anchors, b in partners) with dist < radius.
PcfResult run_pcf_cross(vgpu::LaunchTarget target, const PointsSoA& anchors,
                        const PointsSoA& partners, double radius,
                        int block_size);

}  // namespace tbs::kernels
