#include "kernels/type1.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "kernels/distance.hpp"
#include "vgpu/buffer.hpp"

namespace tbs::kernels {

using vgpu::Device;
using vgpu::DeviceBuffer;
using vgpu::DevicePoints;
using vgpu::KernelTask;
using vgpu::LaunchConfig;
using vgpu::Phase;
using vgpu::SharedPointsTile;
using vgpu::ThreadCtx;

namespace {

/// Cost model constant: one expf() evaluation.
constexpr double kExpOps = 10.0;

struct KnnParams {
  const DevicePoints* pts = nullptr;
  DeviceBuffer<float>* out = nullptr;  ///< n * k distances
  int k = 1;
  int n = 0;
};

/// Register-resident sorted candidate list; insertion is pure register
/// arithmetic (Type-I output pattern).
KernelTask knn_kernel(ThreadCtx& ctx, KnnParams p) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.n;

  SharedPointsTile tile(ctx, 0, static_cast<std::size_t>(B));
  Point3 reg{};
  if (active)
    reg = co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));

  std::array<float, kMaxKnnK> best{};
  best.fill(std::numeric_limits<float>::infinity());

  ctx.mark_phase(Phase::InterBlock);
  for (int i = 0; i < M; ++i) {  // kNN needs both directions: every block
    const long src = static_cast<long>(i) * B + t;
    if (src < p.n)
      co_await tile.store_point(
          ctx, t,
          co_await p.pts->load_point(ctx, static_cast<std::size_t>(src)));
    co_await ctx.sync();
    const long base = static_cast<long>(i) * B;
    const int lim = static_cast<int>(std::min<long>(B, p.n - base));
    if (active) {
      for (int j = 0; j < lim; ++j) {
        ctx.control(kLoopControlOps);
        if (base + j == g) continue;  // exclude self
        const Point3 q = co_await tile.load_point(ctx, j);
        const float d2v = dist2(reg, q);
        ctx.arith(kDist2Ops);
        if (d2v < best[static_cast<std::size_t>(p.k - 1)]) {
          // register insertion sort (k is tiny)
          int pos = p.k - 1;
          while (pos > 0 && best[static_cast<std::size_t>(pos - 1)] > d2v) {
            best[static_cast<std::size_t>(pos)] =
                best[static_cast<std::size_t>(pos - 1)];
            --pos;
          }
          best[static_cast<std::size_t>(pos)] = d2v;
          ctx.arith(static_cast<double>(p.k));
        }
      }
    }
    co_await ctx.sync();
  }

  ctx.mark_phase(Phase::Output);
  if (active) {
    for (int j = 0; j < p.k; ++j) {
      ctx.arith(kSqrtOps);
      co_await p.out->store(
          ctx, static_cast<std::size_t>(g) * p.k + j,
          std::sqrt(best[static_cast<std::size_t>(j)]));
    }
  }
}

struct KdeParams {
  const DevicePoints* pts = nullptr;
  DeviceBuffer<float>* out = nullptr;
  float inv_2h2 = 1.0f;
  int n = 0;
};

KernelTask kde_kernel(ThreadCtx& ctx, KdeParams p) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.n;

  SharedPointsTile tile(ctx, 0, static_cast<std::size_t>(B));
  Point3 reg{};
  if (active)
    reg = co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));

  float sum = 0.0f;
  ctx.mark_phase(Phase::InterBlock);
  for (int i = 0; i < M; ++i) {
    const long src = static_cast<long>(i) * B + t;
    if (src < p.n)
      co_await tile.store_point(
          ctx, t,
          co_await p.pts->load_point(ctx, static_cast<std::size_t>(src)));
    co_await ctx.sync();
    const long base = static_cast<long>(i) * B;
    const int lim = static_cast<int>(std::min<long>(B, p.n - base));
    if (active) {
      for (int j = 0; j < lim; ++j) {
        ctx.control(kLoopControlOps);
        if (base + j == g) continue;
        const Point3 q = co_await tile.load_point(ctx, j);
        ctx.arith(kDist2Ops + kExpOps + 1);
        sum += std::exp(-dist2(reg, q) * p.inv_2h2);
      }
    }
    co_await ctx.sync();
  }

  ctx.mark_phase(Phase::Output);
  if (active) co_await p.out->store(ctx, static_cast<std::size_t>(g), sum);
}

}  // namespace

KnnResult run_knn(vgpu::LaunchTarget target, const PointsSoA& pts, int k,
                  int block_size) {
  check(k >= 1 && k <= kMaxKnnK, "run_knn: k out of register-resident range");
  check(pts.size() > static_cast<std::size_t>(k),
        "run_knn: need more points than k");
  const int n = static_cast<int>(pts.size());
  const int grid = (n + block_size - 1) / block_size;

  DevicePoints dpts(pts);
  DeviceBuffer<float> out(static_cast<std::size_t>(n) * k, 0.0f);
  KnnParams p{&dpts, &out, k, n};

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes =
      SharedPointsTile::bytes(static_cast<std::size_t>(block_size));

  KnnResult result;
  result.stats =
      target.launch(cfg, [&](ThreadCtx& ctx) { return knn_kernel(ctx, p); });
  result.neighbours.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& row = result.neighbours[static_cast<std::size_t>(i)];
    row.assign(out.host().begin() + static_cast<long>(i) * k,
               out.host().begin() + static_cast<long>(i + 1) * k);
  }
  return result;
}

KdeResult run_kde(Device& dev, const PointsSoA& pts, double bandwidth,
                  int block_size) {
  check(bandwidth > 0.0, "run_kde: bandwidth must be positive");
  const int n = static_cast<int>(pts.size());
  const int grid = (n + block_size - 1) / block_size;

  DevicePoints dpts(pts);
  DeviceBuffer<float> out(static_cast<std::size_t>(n), 0.0f);
  KdeParams p{&dpts, &out,
              static_cast<float>(1.0 / (2.0 * bandwidth * bandwidth)), n};

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes =
      SharedPointsTile::bytes(static_cast<std::size_t>(block_size));

  KdeResult result;
  result.stats =
      dev.launch(cfg, [&](ThreadCtx& ctx) { return kde_kernel(ctx, p); });
  result.density.assign(out.host().begin(), out.host().end());
  return result;
}

}  // namespace tbs::kernels
