// Both tile bodies round like the reference loops only while no multiply
// and add is fused. Baseline x86-64 and target("avx2") have no FMA; the
// pragma keeps this file unfused under any -march, so the two bodies
// always agree with each other. The reference loops carry no such guard,
// so an FMA -march build may fuse them (DESIGN.md §4).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "cpubase/sdh_tile.hpp"

#include <algorithm>
#include <cmath>

#include "common/histogram.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace tbs::cpubase {

namespace {

/// The increments of one tile: consecutive pairs go to consecutive copies,
/// so no increment waits on the one before it.
inline void count_tile(const int* b, std::size_t n, const SdhCopies& out) {
  const auto nb = static_cast<std::size_t>(out.buckets);
  std::uint64_t* c0 = out.counts;
  std::uint64_t* c1 = c0 + nb;
  std::uint64_t* c2 = c1 + nb;
  std::uint64_t* c3 = c2 + nb;
  std::size_t t = 0;
  for (; t + kSdhCopies <= n; t += kSdhCopies) {
    ++c0[b[t]];
    ++c1[b[t + 1]];
    ++c2[b[t + 2]];
    ++c3[b[t + 3]];
  }
  for (; t < n; ++t) ++c0[b[t]];
}

#if defined(__x86_64__) && defined(__GNUC__)

/// Eight pairs per step, each operation the vector twin of the scalar
/// loop's: the same sums in the same order, a correctly rounded vsqrtps,
/// an exact widening to double, a correctly rounded vdivpd, and
/// bucket_index's clamp (vminpd keeps its second operand for a NaN, as
/// `q < last ? q : last` does) before the truncating conversion. A tail of
/// fewer than eight pairs takes the scalar expression.
__attribute__((target("avx2"))) void sdh_tile_avx2_body(
    Point3 a, const float* xs, const float* ys, const float* zs,
    std::size_t m, const SdhCopies& out) {
  const __m256 ax = _mm256_set1_ps(a.x);
  const __m256 ay = _mm256_set1_ps(a.y);
  const __m256 az = _mm256_set1_ps(a.z);
  const __m256d width = _mm256_set1_pd(out.width);
  const __m256d last = _mm256_set1_pd(static_cast<double>(out.buckets - 1));
  alignas(32) int b_tile[kCpuTile];
  for (std::size_t j0 = 0; j0 < m; j0 += kCpuTile) {
    const std::size_t n = std::min(kCpuTile, m - j0);
    const float* x = xs + j0;
    const float* y = ys + j0;
    const float* z = zs + j0;
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
      const __m256 dx = _mm256_sub_ps(ax, _mm256_loadu_ps(x + t));
      const __m256 dy = _mm256_sub_ps(ay, _mm256_loadu_ps(y + t));
      const __m256 dz = _mm256_sub_ps(az, _mm256_loadu_ps(z + t));
      const __m256 d = _mm256_sqrt_ps(_mm256_add_ps(
          _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
          _mm256_mul_ps(dz, dz)));
      const __m256d q_lo = _mm256_min_pd(
          _mm256_div_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(d)), width),
          last);
      const __m256d q_hi = _mm256_min_pd(
          _mm256_div_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(d, 1)), width),
          last);
      _mm_store_si128(reinterpret_cast<__m128i*>(b_tile + t),
                      _mm256_cvttpd_epi32(q_lo));
      _mm_store_si128(reinterpret_cast<__m128i*>(b_tile + t + 4),
                      _mm256_cvttpd_epi32(q_hi));
    }
    for (; t < n; ++t) {
      const float dx = a.x - x[t];
      const float dy = a.y - y[t];
      const float dz = a.z - z[t];
      b_tile[t] = bucket_index(std::sqrt(dx * dx + dy * dy + dz * dz),
                               out.width, out.buckets);
    }
    count_tile(b_tile, n, out);
  }
}

#endif

}  // namespace

void sdh_tile_portable(Point3 a, const float* xs, const float* ys,
                       const float* zs, std::size_t m, const SdhCopies& out) {
  float d_tile[kCpuTile];
  int b_tile[kCpuTile];
  for (std::size_t j0 = 0; j0 < m; j0 += kCpuTile) {
    const std::size_t n = std::min(kCpuTile, m - j0);
    for (std::size_t t = 0; t < n; ++t) {
      const float dx = a.x - xs[j0 + t];
      const float dy = a.y - ys[j0 + t];
      const float dz = a.z - zs[j0 + t];
      d_tile[t] = std::sqrt(dx * dx + dy * dy + dz * dz);
    }
    for (std::size_t t = 0; t < n; ++t)
      b_tile[t] = bucket_index(d_tile[t], out.width, out.buckets);
    count_tile(b_tile, n, out);
  }
}

SdhTileFn sdh_tile_avx2() {
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return sdh_tile_avx2_body;
#endif
  return nullptr;
}

SdhTileFn sdh_tile() {
  static const SdhTileFn chosen = [] {
    const SdhTileFn avx2 = sdh_tile_avx2();
    return avx2 != nullptr ? avx2 : sdh_tile_portable;
  }();
  return chosen;
}

}  // namespace tbs::cpubase
