#include "cpubase/cpu_stats.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <mutex>

#include "common/error.hpp"
#include "cpubase/sdh_tile.hpp"

namespace tbs::cpubase {

namespace {

/// The SDH of the pairs (anchor i, partner j): j > i when `triangular`
/// (one set against itself), every j otherwise. Each anchor's partner run
/// goes through the tile body `tile`, into kSdhCopies private copies per
/// worker, which are folded and then tree-reduced.
Histogram sdh_by_tiles(ThreadPool& pool, const PointsSoA& anchors,
                       const PointsSoA& partners, bool triangular,
                       double bucket_width, std::size_t buckets,
                       SdhTileFn tile) {
  check(buckets <= INT_MAX, "SDH: too many buckets");
  const std::size_t np = partners.size();
  const float* xs = partners.x().data();
  const float* ys = partners.y().data();
  const float* zs = partners.z().data();
  std::vector<std::vector<std::uint64_t>> priv(
      pool.size(), std::vector<std::uint64_t>(kSdhCopies * buckets, 0));

  parallel_for(
      pool, 0, anchors.size(),
      [&](unsigned id, std::size_t lo, std::size_t hi) {
        const SdhCopies out{priv[id].data(), bucket_width,
                            static_cast<int>(buckets)};
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t j0 = triangular ? i + 1 : 0;
          if (j0 < np)
            tile(anchors[i], xs + j0, ys + j0, zs + j0, np - j0, out);
        }
      });

  for (auto& mine : priv)
    for (std::size_t c = 1; c < kSdhCopies; ++c)
      for (std::size_t b = 0; b < buckets; ++b)
        mine[b] += mine[c * buckets + b];
  for (std::size_t stride = 1; stride < priv.size(); stride *= 2)
    for (std::size_t i = 0; i + stride < priv.size(); i += 2 * stride)
      for (std::size_t b = 0; b < buckets; ++b)
        priv[i][b] += priv[i + stride][b];

  Histogram result(bucket_width, buckets);
  for (std::size_t b = 0; b < buckets; ++b) result.set_count(b, priv[0][b]);
  return result;
}

}  // namespace

Histogram cpu_sdh(ThreadPool& pool, const PointsSoA& pts,
                  double bucket_width, std::size_t buckets) {
  check(!pts.empty(), "cpu_sdh: empty point set");
  const std::size_t n = pts.size();
  // Bucket with the same double-precision division Histogram::bucket_of
  // uses, so boundary pairs land identically across all implementations.
  const double w = bucket_width;
  const std::span<const float> xs = pts.x();
  const std::span<const float> ys = pts.y();
  const std::span<const float> zs = pts.z();

  // One private histogram per worker (the paper's privatization on CPU).
  std::vector<std::vector<std::uint64_t>> priv(
      pool.size(), std::vector<std::uint64_t>(buckets, 0));
  const int nb = static_cast<int>(buckets);

  parallel_for(
      pool, 0, n,
      [&](unsigned id, std::size_t lo, std::size_t hi) {
        std::uint64_t* mine = priv[id].data();
        for (std::size_t i = lo; i < hi; ++i) {
          const float xi = xs[i];
          const float yi = ys[i];
          const float zi = zs[i];
          for (std::size_t j = i + 1; j < n; ++j) {
            const float dx = xi - xs[j];
            const float dy = yi - ys[j];
            const float dz = zi - zs[j];
            const float d = std::sqrt(dx * dx + dy * dy + dz * dz);
            ++mine[static_cast<std::size_t>(bucket_index(d, w, nb))];
          }
        }
      });

  // Tree reduction of the private copies.
  for (std::size_t stride = 1; stride < priv.size(); stride *= 2)
    for (std::size_t i = 0; i + stride < priv.size(); i += 2 * stride)
      for (std::size_t b = 0; b < buckets; ++b)
        priv[i][b] += priv[i + stride][b];

  Histogram result(bucket_width, buckets);
  for (std::size_t b = 0; b < buckets; ++b) result.set_count(b, priv[0][b]);
  return result;
}

Histogram cpu_sdh_tiled(ThreadPool& pool, const PointsSoA& pts,
                        double bucket_width, std::size_t buckets) {
  check(!pts.empty(), "cpu_sdh_tiled: empty point set");
  return sdh_by_tiles(pool, pts, pts, /*triangular=*/true, bucket_width,
                      buckets, sdh_tile_portable);
}

std::uint64_t cpu_pcf(ThreadPool& pool, const PointsSoA& pts, double radius) {
  check(!pts.empty(), "cpu_pcf: empty point set");
  const std::size_t n = pts.size();
  const auto r2 = static_cast<float>(radius * radius);
  const std::span<const float> xs = pts.x();
  const std::span<const float> ys = pts.y();
  const std::span<const float> zs = pts.z();

  std::vector<std::uint64_t> partial(pool.size(), 0);
  parallel_for(
      pool, 0, n,
      [&](unsigned id, std::size_t lo, std::size_t hi) {
        std::uint64_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const float xi = xs[i];
          const float yi = ys[i];
          const float zi = zs[i];
          for (std::size_t j = i + 1; j < n; ++j) {
            const float dx = xi - xs[j];
            const float dy = yi - ys[j];
            const float dz = zi - zs[j];
            if (dx * dx + dy * dy + dz * dz < r2) ++count;
          }
        }
        partial[id] += count;
      });

  std::uint64_t total = 0;
  for (const auto c : partial) total += c;
  return total;
}

std::uint64_t cpu_pcf_tiled(ThreadPool& pool, const PointsSoA& pts,
                            double radius) {
  check(!pts.empty(), "cpu_pcf_tiled: empty point set");
  const std::size_t n = pts.size();
  const auto r2 = static_cast<float>(radius * radius);
  const std::span<const float> xs = pts.x();
  const std::span<const float> ys = pts.y();
  const std::span<const float> zs = pts.z();

  std::vector<std::uint64_t> partial(pool.size(), 0);
  parallel_for(
      pool, 0, n,
      [&](unsigned id, std::size_t lo, std::size_t hi) {
        std::uint64_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const float xi = xs[i];
          const float yi = ys[i];
          const float zi = zs[i];
          for (std::size_t j0 = i + 1; j0 < n; j0 += kCpuTile) {
            const std::size_t m = std::min(kCpuTile, n - j0);
            // Branch-free tile body: the comparison result folds into an
            // integer accumulator, so every lane vectorizes.
            std::uint64_t hits = 0;
            for (std::size_t t = 0; t < m; ++t) {
              const float dx = xi - xs[j0 + t];
              const float dy = yi - ys[j0 + t];
              const float dz = zi - zs[j0 + t];
              hits += (dx * dx + dy * dy + dz * dz < r2) ? 1u : 0u;
            }
            count += hits;
          }
        }
        partial[id] += count;
      });

  std::uint64_t total = 0;
  for (const auto c : partial) total += c;
  return total;
}

Histogram cpu_sdh_simd(ThreadPool& pool, const PointsSoA& pts,
                       double bucket_width, std::size_t buckets) {
  check(!pts.empty(), "cpu_sdh_simd: empty point set");
  return sdh_by_tiles(pool, pts, pts, /*triangular=*/true, bucket_width,
                      buckets, sdh_tile());
}

Histogram cpu_sdh_cross(ThreadPool& pool, const PointsSoA& anchors,
                        const PointsSoA& partners, double bucket_width,
                        std::size_t buckets) {
  check(!anchors.empty() && !partners.empty(),
        "cpu_sdh_cross: empty point set");
  return sdh_by_tiles(pool, anchors, partners, /*triangular=*/false,
                      bucket_width, buckets, sdh_tile());
}

std::uint64_t cpu_pcf_cross(ThreadPool& pool, const PointsSoA& anchors,
                            const PointsSoA& partners, double radius) {
  check(!anchors.empty() && !partners.empty(),
        "cpu_pcf_cross: empty point set");
  const std::size_t na = anchors.size();
  const std::size_t nb_pts = partners.size();
  const auto r2 = static_cast<float>(radius * radius);
  const std::span<const float> axs = anchors.x();
  const std::span<const float> ays = anchors.y();
  const std::span<const float> azs = anchors.z();
  const std::span<const float> bxs = partners.x();
  const std::span<const float> bys = partners.y();
  const std::span<const float> bzs = partners.z();

  std::vector<std::uint64_t> partial(pool.size(), 0);
  parallel_for(
      pool, 0, na,
      [&](unsigned id, std::size_t lo, std::size_t hi) {
        std::uint64_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const float xi = axs[i];
          const float yi = ays[i];
          const float zi = azs[i];
          for (std::size_t j0 = 0; j0 < nb_pts; j0 += kCpuTile) {
            const std::size_t m = std::min(kCpuTile, nb_pts - j0);
            std::uint64_t hits = 0;
            for (std::size_t t = 0; t < m; ++t) {
              const float dx = xi - bxs[j0 + t];
              const float dy = yi - bys[j0 + t];
              const float dz = zi - bzs[j0 + t];
              hits += (dx * dx + dy * dy + dz * dz < r2) ? 1u : 0u;
            }
            count += hits;
          }
        }
        partial[id] += count;
      });

  std::uint64_t total = 0;
  for (const auto c : partial) total += c;
  return total;
}

std::vector<std::vector<float>> cpu_knn(ThreadPool& pool,
                                        const PointsSoA& pts, int k) {
  check(k >= 1, "cpu_knn: k must be >= 1");
  check(pts.size() > static_cast<std::size_t>(k),
        "cpu_knn: need more points than k");
  const std::size_t n = pts.size();
  std::vector<std::vector<float>> result(n);

  parallel_for(
      pool, 0, n,
      [&](unsigned, std::size_t lo, std::size_t hi) {
        std::vector<float> d2(n);
        for (std::size_t i = lo; i < hi; ++i) {
          const Point3 pi = pts[i];
          for (std::size_t j = 0; j < n; ++j) d2[j] = dist2(pi, pts[j]);
          d2[i] = std::numeric_limits<float>::infinity();  // exclude self
          // Select in place on the scratch row, then build the result row
          // from its k smallest values: a row owns k floats, never n.
          const auto kth = d2.begin() + (k - 1);
          std::nth_element(d2.begin(), kth, d2.end());
          std::vector<float> row(d2.begin(), kth + 1);
          std::sort(row.begin(), row.end());
          for (auto& v : row) v = std::sqrt(v);
          result[i] = std::move(row);
        }
      });
  return result;
}

std::vector<double> cpu_kde(ThreadPool& pool, const PointsSoA& pts,
                            double bandwidth) {
  check(bandwidth > 0.0, "cpu_kde: bandwidth must be positive");
  const std::size_t n = pts.size();
  const double inv = 1.0 / (2.0 * bandwidth * bandwidth);
  std::vector<double> f(n, 0.0);

  parallel_for(
      pool, 0, n,
      [&](unsigned, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const Point3 pi = pts[i];
          double sum = 0.0;
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i) continue;
            sum += std::exp(-static_cast<double>(dist2(pi, pts[j])) * inv);
          }
          f[i] = sum;
        }
      });
  return f;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> cpu_distance_join(
    ThreadPool& pool, const PointsSoA& pts, double radius) {
  const std::size_t n = pts.size();
  const auto r2 = static_cast<float>(radius * radius);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  std::mutex out_mutex;

  parallel_for(
      pool, 0, n,
      [&](unsigned, std::size_t lo, std::size_t hi) {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> local;
        for (std::size_t i = lo; i < hi; ++i) {
          const Point3 pi = pts[i];
          for (std::size_t j = i + 1; j < n; ++j) {
            if (dist2(pi, pts[j]) < r2)
              local.emplace_back(static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(j));
          }
        }
        const std::lock_guard lock(out_mutex);
        out.insert(out.end(), local.begin(), local.end());
      });
  return out;
}

std::vector<float> cpu_gram(ThreadPool& pool, const PointsSoA& pts,
                            double gamma) {
  const std::size_t n = pts.size();
  std::vector<float> k(n * n, 0.0f);
  const auto g = static_cast<float>(gamma);

  parallel_for(
      pool, 0, n,
      [&](unsigned, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const Point3 pi = pts[i];
          for (std::size_t j = 0; j < n; ++j)
            k[i * n + j] = std::exp(-g * dist2(pi, pts[j]));
        }
      });
  return k;
}

}  // namespace tbs::cpubase
