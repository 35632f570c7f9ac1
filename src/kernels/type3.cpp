#include "kernels/type3.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "kernels/distance.hpp"
#include "vgpu/buffer.hpp"

namespace tbs::kernels {

using vgpu::DeviceBuffer;
using vgpu::DevicePoints;
using vgpu::KernelStats;
using vgpu::KernelTask;
using vgpu::LaunchConfig;
using vgpu::Phase;
using vgpu::SharedPointsTile;
using vgpu::ThreadCtx;

namespace {

constexpr double kExpOps = 10.0;

struct JoinParams {
  const DevicePoints* pts = nullptr;
  DeviceBuffer<std::uint32_t>* out_i = nullptr;
  DeviceBuffer<std::uint32_t>* out_j = nullptr;
  DeviceBuffer<std::uint32_t>* cursor = nullptr;   ///< GlobalCursor variant
  DeviceBuffer<std::uint32_t>* offsets = nullptr;  ///< TwoPhase variant
  DeviceBuffer<std::uint32_t>* counts = nullptr;   ///< TwoPhase phase 1
  float r2 = 0.0f;
  int n = 0;
  std::size_t capacity = 0;
};

enum class JoinMode { Count, EmitCursor, EmitSliced };

/// One kernel, three modes: Count tallies matches per thread; EmitCursor
/// writes through a global atomic cursor; EmitSliced writes into the
/// thread's precomputed exclusive slice. Pairwise stage is Register-SHM
/// tiling in all modes.
KernelTask join_kernel(ThreadCtx& ctx, JoinParams p, JoinMode mode) {
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

  std::uint32_t found = 0;
  std::size_t slice = 0;
  if (mode == JoinMode::EmitSliced && active)
    slice = co_await p.offsets->load(ctx, static_cast<std::size_t>(g));

  ctx.mark_phase(Phase::InterBlock);
  for (int i = b; i < M; ++i) {
    const long src = static_cast<long>(i) * B + t;
    if (src < p.n)
      co_await tile.store_point(
          ctx, t,
          co_await p.pts->load_point(ctx, static_cast<std::size_t>(src)));
    co_await ctx.sync();
    const long base = static_cast<long>(i) * B;
    const int lim = static_cast<int>(std::min<long>(B, p.n - base));
    if (active) {
      const int j0 = (i == b) ? t + 1 : 0;  // own block: triangular
      for (int j = j0; j < lim; ++j) {
        ctx.control(kLoopControlOps);
        const Point3 q = co_await tile.load_point(ctx, j);
        ctx.arith(kPcfPairOps);
        if (dist2(reg, q) < p.r2) {
          const auto pi = static_cast<std::uint32_t>(g);
          const auto pj = static_cast<std::uint32_t>(base + j);
          switch (mode) {
            case JoinMode::Count:
              ++found;
              break;
            case JoinMode::EmitCursor: {
              const std::uint32_t pos =
                  co_await p.cursor->atomic_add(ctx, 0, 1u);
              if (pos < p.capacity) {
                co_await p.out_i->store(ctx, pos, pi);
                co_await p.out_j->store(ctx, pos, pj);
              }
              break;
            }
            case JoinMode::EmitSliced:
              co_await p.out_i->store(ctx, slice, pi);
              co_await p.out_j->store(ctx, slice, pj);
              ++slice;
              break;
          }
        }
      }
    }
    co_await ctx.sync();
  }

  if (mode == JoinMode::Count && active) {
    ctx.mark_phase(Phase::Output);
    co_await p.counts->store(ctx, static_cast<std::size_t>(g), found);
  }
}

struct GramParams {
  const DevicePoints* pts = nullptr;
  DeviceBuffer<float>* out = nullptr;  ///< n*n, written K[j*n + g]
  float gamma = 1.0f;
  int n = 0;
};

KernelTask gram_kernel(ThreadCtx& ctx, GramParams p) {
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

  ctx.mark_phase(Phase::InterBlock);
  for (int i = 0; i < M; ++i) {  // full matrix: every block
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
        const Point3 q = co_await tile.load_point(ctx, j);
        ctx.arith(kDist2Ops + kExpOps);
        const float k = std::exp(-p.gamma * dist2(reg, q));
        // Transposed store: lane index g is the fastest-varying dimension,
        // so the 32 lanes of a warp hit consecutive addresses (coalesced).
        co_await p.out->store(
            ctx,
            static_cast<std::size_t>(base + j) * p.n +
                static_cast<std::size_t>(g),
            k);
      }
    }
    co_await ctx.sync();
  }
}

}  // namespace

const char* to_string(JoinVariant v) {
  switch (v) {
    case JoinVariant::GlobalCursor: return "global-cursor";
    case JoinVariant::TwoPhase: return "two-phase";
  }
  return "?";
}

JoinResult run_distance_join(vgpu::LaunchTarget target, const PointsSoA& pts,
                             double radius, JoinVariant variant,
                             int block_size) {
  check(!pts.empty(), "run_distance_join: empty point set");
  check(radius > 0.0, "run_distance_join: radius must be positive");
  const int n = static_cast<int>(pts.size());
  const int grid = (n + block_size - 1) / block_size;

  DevicePoints dpts(pts);
  JoinParams p;
  p.pts = &dpts;
  p.r2 = static_cast<float>(radius * radius);
  p.n = n;

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes =
      SharedPointsTile::bytes(static_cast<std::size_t>(block_size));

  JoinResult result;
  if (variant == JoinVariant::GlobalCursor) {
    // Worst-case capacity is quadratic; size generously and verify below.
    const std::size_t cap =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n) / 2 + 1;
    DeviceBuffer<std::uint32_t> out_i(cap, 0);
    DeviceBuffer<std::uint32_t> out_j(cap, 0);
    DeviceBuffer<std::uint32_t> cursor(1, 0);
    p.out_i = &out_i;
    p.out_j = &out_j;
    p.cursor = &cursor;
    p.capacity = cap;
    result.stats = target.launch(cfg, [&](ThreadCtx& ctx) {
      return join_kernel(ctx, p, JoinMode::EmitCursor);
    });
    const std::uint32_t emitted = cursor.host()[0];
    check(emitted <= cap, "run_distance_join: cursor overflow");
    result.pairs.reserve(emitted);
    for (std::uint32_t e = 0; e < emitted; ++e)
      result.pairs.emplace_back(out_i.host()[e], out_j.host()[e]);
  } else {
    // Phase 1: count per thread.
    DeviceBuffer<std::uint32_t> counts(static_cast<std::size_t>(n), 0);
    p.counts = &counts;
    result.stats = target.launch(cfg, [&](ThreadCtx& ctx) {
      return join_kernel(ctx, p, JoinMode::Count);
    });
    // Host-side exclusive prefix sum (cheap: O(N)).
    DeviceBuffer<std::uint32_t> offsets(static_cast<std::size_t>(n), 0);
    std::uint32_t running = 0;
    for (int i = 0; i < n; ++i) {
      offsets.host()[static_cast<std::size_t>(i)] = running;
      running += counts.host()[static_cast<std::size_t>(i)];
    }
    // Phase 2: emit into exclusive slices.
    DeviceBuffer<std::uint32_t> out_i(std::max<std::size_t>(running, 1), 0);
    DeviceBuffer<std::uint32_t> out_j(std::max<std::size_t>(running, 1), 0);
    p.out_i = &out_i;
    p.out_j = &out_j;
    p.offsets = &offsets;
    const KernelStats phase2 = target.launch(cfg, [&](ThreadCtx& ctx) {
      return join_kernel(ctx, p, JoinMode::EmitSliced);
    });
    result.stats.merge(phase2);
    result.pairs.reserve(running);
    for (std::uint32_t e = 0; e < running; ++e)
      result.pairs.emplace_back(out_i.host()[e], out_j.host()[e]);
  }
  return result;
}

GramResult run_gram(vgpu::LaunchTarget target, const PointsSoA& pts,
                    double gamma, int block_size) {
  check(!pts.empty(), "run_gram: empty point set");
  const int n = static_cast<int>(pts.size());
  const int grid = (n + block_size - 1) / block_size;

  DevicePoints dpts(pts);
  DeviceBuffer<float> out(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0f);
  GramParams p{&dpts, &out, static_cast<float>(gamma), n};

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes =
      SharedPointsTile::bytes(static_cast<std::size_t>(block_size));

  GramResult result;
  result.stats =
      target.launch(cfg, [&](ThreadCtx& ctx) { return gram_kernel(ctx, p); });
  result.matrix.assign(out.host().begin(), out.host().end());
  return result;
}

}  // namespace tbs::kernels
