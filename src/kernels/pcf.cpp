#include "kernels/pcf.hpp"

#include <algorithm>

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

struct PcfParams {
  const DevicePoints* pts = nullptr;
  DeviceBuffer<std::uint32_t>* out = nullptr;  ///< one count per thread
  float r2 = 0.0f;                             ///< radius squared
  int n = 0;
};

/// Paper Algorithm 1 for Type-I output: all loads from global memory;
/// the count lives in a register the whole time.
KernelTask pcf_naive(ThreadCtx& ctx, PcfParams p) {
  const long g = ctx.global_thread_id();
  if (g >= p.n) co_return;
  const Point3 reg =
      co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));
  std::uint32_t count = 0;
  ctx.mark_phase(Phase::InterBlock);
  for (long i = g + 1; i < p.n; ++i) {
    ctx.control(kLoopControlOps);
    const Point3 q =
        co_await p.pts->load_point(ctx, static_cast<std::size_t>(i));
    ctx.arith(kPcfPairOps);
    if (dist2(reg, q) < p.r2) ++count;
  }
  ctx.mark_phase(Phase::Output);
  co_await p.out->store(ctx, static_cast<std::size_t>(g), count);
}

/// Both L and R tiled in shared memory (paper Algorithm 2 as written):
/// every pair costs two shared-memory reads.
KernelTask pcf_shm_shm(ThreadCtx& ctx, PcfParams p) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.n;

  SharedPointsTile tile_l(ctx, 0, static_cast<std::size_t>(B));
  SharedPointsTile tile_r(ctx,
                          SharedPointsTile::bytes(static_cast<std::size_t>(B)),
                          static_cast<std::size_t>(B));
  if (active)
    co_await tile_l.store_point(
        ctx, t, co_await p.pts->load_point(ctx, static_cast<std::size_t>(g)));
  co_await ctx.sync();

  std::uint32_t count = 0;
  ctx.mark_phase(Phase::InterBlock);
  for (int i = b + 1; i < M; ++i) {
    const long src = static_cast<long>(i) * B + t;
    if (src < p.n)
      co_await tile_r.store_point(
          ctx, t,
          co_await p.pts->load_point(ctx, static_cast<std::size_t>(src)));
    co_await ctx.sync();
    const int lim = static_cast<int>(
        std::min<long>(B, p.n - static_cast<long>(i) * B));
    if (active) {
      for (int j = 0; j < lim; ++j) {
        ctx.control(kLoopControlOps);
        const Point3 a = co_await tile_l.load_point(ctx, t);
        const Point3 q = co_await tile_r.load_point(ctx, j);
        ctx.arith(kPcfPairOps);
        if (dist2(a, q) < p.r2) ++count;
      }
    }
    co_await ctx.sync();
  }

  ctx.mark_phase(Phase::IntraBlock);
  const int lim_l = static_cast<int>(
      std::min<long>(B, p.n - static_cast<long>(b) * B));
  for (int i = t + 1; i < lim_l; ++i) {
    ctx.control(kLoopControlOps);
    const Point3 a = co_await tile_l.load_point(ctx, t);
    const Point3 q = co_await tile_l.load_point(ctx, i);
    ctx.arith(kPcfPairOps);
    if (dist2(a, q) < p.r2) ++count;
  }
  ctx.mark_phase(Phase::Output);
  if (active) co_await p.out->store(ctx, static_cast<std::size_t>(g), count);
}

/// Register anchor + shared R tile (paper Algorithm 3 pairwise stage),
/// reusing R's storage for the intra-block loop.
KernelTask pcf_reg_shm(ThreadCtx& ctx, PcfParams p) {
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

  std::uint32_t count = 0;
  ctx.mark_phase(Phase::InterBlock);
  for (int i = b + 1; i < M; ++i) {
    const long src = static_cast<long>(i) * B + t;
    if (src < p.n)
      co_await tile.store_point(
          ctx, t,
          co_await p.pts->load_point(ctx, static_cast<std::size_t>(src)));
    co_await ctx.sync();
    const int lim = static_cast<int>(
        std::min<long>(B, p.n - static_cast<long>(i) * B));
    if (active) {
      for (int j = 0; j < lim; ++j) {
        ctx.control(kLoopControlOps);
        const Point3 q = co_await tile.load_point(ctx, j);
        ctx.arith(kPcfPairOps);
        if (dist2(reg, q) < p.r2) ++count;
      }
    }
    co_await ctx.sync();
  }

  ctx.mark_phase(Phase::IntraBlock);
  if (active) co_await tile.store_point(ctx, t, reg);
  co_await ctx.sync();
  const int lim_l = static_cast<int>(
      std::min<long>(B, p.n - static_cast<long>(b) * B));
  for (int i = t + 1; i < lim_l; ++i) {
    ctx.control(kLoopControlOps);
    const Point3 q = co_await tile.load_point(ctx, i);
    ctx.arith(kPcfPairOps);
    if (dist2(reg, q) < p.r2) ++count;
  }
  ctx.mark_phase(Phase::Output);
  if (active) co_await p.out->store(ctx, static_cast<std::size_t>(g), count);
}

/// Register anchor + read-only-cache loads for R and the intra-block loop.
KernelTask pcf_reg_roc(ThreadCtx& ctx, PcfParams p) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const long g = static_cast<long>(b) * B + t;
  if (g >= p.n) co_return;
  const Point3 reg =
      co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));

  std::uint32_t count = 0;
  ctx.mark_phase(Phase::InterBlock);
  for (int i = b + 1; i < M; ++i) {
    const long base = static_cast<long>(i) * B;
    const int lim = static_cast<int>(std::min<long>(B, p.n - base));
    for (int j = 0; j < lim; ++j) {
      ctx.control(kLoopControlOps);
      const Point3 q = co_await p.pts->ro_load_point(
          ctx, static_cast<std::size_t>(base + j));
      ctx.arith(kPcfPairOps);
      if (dist2(reg, q) < p.r2) ++count;
    }
  }

  ctx.mark_phase(Phase::IntraBlock);
  const long base_l = static_cast<long>(b) * B;
  const int lim_l = static_cast<int>(std::min<long>(B, p.n - base_l));
  for (int i = t + 1; i < lim_l; ++i) {
    ctx.control(kLoopControlOps);
    const Point3 q = co_await p.pts->ro_load_point(
        ctx, static_cast<std::size_t>(base_l + i));
    ctx.arith(kPcfPairOps);
    if (dist2(reg, q) < p.r2) ++count;
  }
  ctx.mark_phase(Phase::Output);
  co_await p.out->store(ctx, static_cast<std::size_t>(g), count);
}

/// Register-SHM pairwise stage; output reduced across each warp with a
/// shuffle-XOR butterfly before a single per-warp store.
KernelTask pcf_warpsum(ThreadCtx& ctx, PcfParams p) {
  constexpr int w = 32;
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const int lane = ctx.lane;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.n;

  SharedPointsTile tile(ctx, 0, static_cast<std::size_t>(B));
  Point3 reg{};
  if (active)
    reg = co_await p.pts->load_point(
        ctx, static_cast<std::size_t>(std::min<long>(g, p.n - 1)));
  // Anchor clamped for inactive lanes so every lane can join the final
  // warp shuffle; their contribution stays zero.

  std::uint32_t count = 0;
  ctx.mark_phase(Phase::InterBlock);
  for (int i = b + 1; i < M; ++i) {
    const long src = static_cast<long>(i) * B + t;
    if (src < p.n)
      co_await tile.store_point(
          ctx, t,
          co_await p.pts->load_point(ctx, static_cast<std::size_t>(src)));
    co_await ctx.sync();
    const int lim = static_cast<int>(
        std::min<long>(B, p.n - static_cast<long>(i) * B));
    if (active) {
      for (int j = 0; j < lim; ++j) {
        ctx.control(kLoopControlOps);
        const Point3 q = co_await tile.load_point(ctx, j);
        ctx.arith(kPcfPairOps);
        if (dist2(reg, q) < p.r2) ++count;
      }
    }
    co_await ctx.sync();
  }

  ctx.mark_phase(Phase::IntraBlock);
  if (active) co_await tile.store_point(ctx, t, reg);
  co_await ctx.sync();
  const int lim_l = static_cast<int>(
      std::min<long>(B, p.n - static_cast<long>(b) * B));
  if (active) {
    for (int i = t + 1; i < lim_l; ++i) {
      ctx.control(kLoopControlOps);
      const Point3 q = co_await tile.load_point(ctx, i);
      ctx.arith(kPcfPairOps);
      if (dist2(reg, q) < p.r2) ++count;
    }
  }
  co_await ctx.sync();

  // Warp butterfly: after log2(w) xor-exchanges every lane holds the warp
  // total; lane 0 stores it. All lanes participate (count is 0 for
  // inactive lanes).
  ctx.mark_phase(Phase::Output);
  for (int offset = w / 2; offset > 0; offset /= 2) {
    const std::uint32_t other =
        co_await ctx.shfl(count, lane ^ offset);
    ctx.arith(1);
    count += other;
  }
  if (lane == 0) {
    const long warp_id = (static_cast<long>(b) * B + t) / w;
    co_await p.out->store(ctx, static_cast<std::size_t>(warp_id), count);
  }
}

}  // namespace

const char* to_string(PcfVariant v) {
  switch (v) {
    case PcfVariant::Naive: return "Naive";
    case PcfVariant::ShmShm: return "SHM-SHM";
    case PcfVariant::RegShm: return "Register-SHM";
    case PcfVariant::RegRoc: return "Register-ROC";
  }
  return "?";
}

std::size_t pcf_shared_bytes(PcfVariant v, int block_size) {
  const std::size_t tile =
      SharedPointsTile::bytes(static_cast<std::size_t>(block_size));
  switch (v) {
    case PcfVariant::Naive:
    case PcfVariant::RegRoc:
      return 0;
    case PcfVariant::RegShm:
      return tile;
    case PcfVariant::ShmShm:
      return 2 * tile;
  }
  return 0;
}

PcfResult run_pcf(vgpu::LaunchTarget target, const PointsSoA& pts,
                  double radius, PcfVariant variant, int block_size) {
  check(!pts.empty(), "run_pcf: empty point set");
  check(radius > 0.0, "run_pcf: radius must be positive");
  check(block_size > 0, "run_pcf: block size must be positive");

  const int n = static_cast<int>(pts.size());
  const int grid = (n + block_size - 1) / block_size;

  DevicePoints dpts(pts);
  DeviceBuffer<std::uint32_t> out(static_cast<std::size_t>(n), 0);

  PcfParams p;
  p.pts = &dpts;
  p.out = &out;
  p.r2 = static_cast<float>(radius * radius);
  p.n = n;

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes = pcf_shared_bytes(variant, block_size);

  PcfResult result;
  result.stats = target.launch(cfg, [&](ThreadCtx& ctx) -> KernelTask {
    switch (variant) {
      case PcfVariant::Naive: return pcf_naive(ctx, p);
      case PcfVariant::ShmShm: return pcf_shm_shm(ctx, p);
      case PcfVariant::RegShm: return pcf_reg_shm(ctx, p);
      case PcfVariant::RegRoc: return pcf_reg_roc(ctx, p);
    }
    fail("run_pcf: unknown variant");
  });
  for (const std::uint32_t c : out.host()) result.pairs_within += c;
  return result;
}

PcfResult run_pcf_warpsum(vgpu::LaunchTarget target, const PointsSoA& pts,
                          double radius, int block_size) {
  check(!pts.empty(), "run_pcf_warpsum: empty point set");
  check(radius > 0.0, "run_pcf_warpsum: radius must be positive");
  check(block_size > 0 && block_size % 32 == 0,
        "run_pcf_warpsum: block size must be a warp multiple");

  const int n = static_cast<int>(pts.size());
  const int grid = (n + block_size - 1) / block_size;
  const std::size_t warps =
      static_cast<std::size_t>(grid) * block_size / 32;

  DevicePoints dpts(pts);
  DeviceBuffer<std::uint32_t> out(warps, 0);

  PcfParams p;
  p.pts = &dpts;
  p.out = &out;
  p.r2 = static_cast<float>(radius * radius);
  p.n = n;

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes =
      SharedPointsTile::bytes(static_cast<std::size_t>(block_size));

  PcfResult result;
  result.stats =
      target.launch(cfg, [&](ThreadCtx& ctx) { return pcf_warpsum(ctx, p); });
  for (const std::uint32_t c : out.host()) result.pairs_within += c;
  return result;
}

}  // namespace tbs::kernels
