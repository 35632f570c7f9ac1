// The SDH pair tile: the inner loop every served CPU SDH launch runs.
//
// A tile body counts the distances from one anchor point to a run of
// partners, kCpuTile partners at a time: a distance-and-bucket lane, then
// scalar increments spread over kSdhCopies private histogram copies. Two
// bodies exist. The AVX2 body evaluates eight pairs per step with
// intrinsics in the scalar loop's order ((dx*dx + dy*dy) + dz*dz, vsqrtps,
// widen to double, vdivpd by the width, vminpd to the last bucket,
// vcvttpd2dq) and never fuses a multiply-add; every step is a correctly
// rounded IEEE operation, so it is bit-identical to cpu_sdh in builds that
// fuse no multiply-add. The portable body is the scalar tile, which
// cpu_sdh_tiled runs on every host. sdh_tile() picks one per process.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/points.hpp"
#include "cpubase/cpu_stats.hpp"

namespace tbs::cpubase {

/// Private histogram copies a tile body spreads its increments over: with
/// few buckets, consecutive pairs hit the same counters, and each increment
/// would wait on the previous store to it.
inline constexpr std::size_t kSdhCopies = 4;

/// Where a tile body counts: kSdhCopies copies of a histogram of `buckets`
/// buckets of `width`, side by side (copy c, bucket b at
/// counts[c * buckets + b]).
struct SdhCopies {
  std::uint64_t* counts = nullptr;
  double width = 1.0;
  int buckets = 1;
};

/// A tile body: add the distance buckets from `anchor` to the `m` partners
/// (xs[t], ys[t], zs[t]), t in [0, m), to `out`.
using SdhTileFn = void (*)(Point3 anchor, const float* xs, const float* ys,
                           const float* zs, std::size_t m,
                           const SdhCopies& out);

/// The portable body: the scalar tile (cpu_sdh_tiled runs it everywhere).
void sdh_tile_portable(Point3 anchor, const float* xs, const float* ys,
                       const float* zs, std::size_t m, const SdhCopies& out);

/// The AVX2 body, or nullptr where this build or host has no AVX2.
[[nodiscard]] SdhTileFn sdh_tile_avx2();

/// The body this process runs: the AVX2 body where there is one, the
/// portable body elsewhere. Chosen once, on first use.
[[nodiscard]] SdhTileFn sdh_tile();

}  // namespace tbs::cpubase
