#include "kernels/cross.hpp"

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
using vgpu::ThreadCtx;

namespace {

/// Everything a cross kernel needs; copied into each lane's frame. The
/// anchor set A is walked one point per thread, the partner set B is
/// streamed in full through the read-only cache by every active thread.
struct CrossParams {
  const DevicePoints* a = nullptr;
  const DevicePoints* b = nullptr;
  DeviceBuffer<std::uint64_t>* out = nullptr;      ///< SDH: final histogram
  DeviceBuffer<std::uint32_t>* scratch = nullptr;  ///< SDH: per-block copies
  DeviceBuffer<std::uint32_t>* counts = nullptr;   ///< PCF: per-thread count
  double width = 1.0;
  int buckets = 1;
  float r2 = 0.0f;
  int na = 0;
  int nb = 0;
};

/// Cross-SDH: register anchor from A, B through the ROC, privatized shared
/// histogram + scratch flush (reduced by cross_reduce). The rectangle has
/// no intra-block phase — every (i, j) pair is inter-set by construction.
KernelTask sdh_cross(ThreadCtx& ctx, CrossParams p) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.na;

  auto hist =
      ctx.shared<std::uint32_t>(0, static_cast<std::size_t>(p.buckets));
  for (int h = t; h < p.buckets; h += B) co_await hist.store(ctx, h, 0u);

  Point3 reg{};
  if (active)
    reg = co_await p.a->load_point(ctx, static_cast<std::size_t>(g));
  co_await ctx.sync();

  if (active) {
    ctx.mark_phase(Phase::InterBlock);
    for (int j = 0; j < p.nb; ++j) {
      ctx.control(kLoopControlOps);
      const Point3 q =
          co_await p.b->ro_load_point(ctx, static_cast<std::size_t>(j));
      const float d = dist(reg, q);
      ctx.arith(kSdhPairOps);
      co_await hist.atomic_add(
          ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
          1u);
    }
  }
  co_await ctx.sync();
  ctx.mark_phase(Phase::Output);
  for (int h = t; h < p.buckets; h += B) {
    const std::uint32_t v = co_await hist.load(ctx, h);
    co_await p.scratch->store(
        ctx, static_cast<std::size_t>(b) * p.buckets + h, v);
  }
}

/// Reduction: one thread per bucket sums the per-block private copies
/// (same shape as the single-set reduction in sdh.cpp).
KernelTask cross_reduce(ThreadCtx& ctx, CrossParams p, int copies) {
  const long h = ctx.global_thread_id();
  if (h >= p.buckets) co_return;
  ctx.mark_phase(Phase::Output);
  std::uint64_t sum = 0;
  for (int c = 0; c < copies; ++c) {
    ctx.control(kLoopControlOps);
    sum += co_await p.scratch->load(
        ctx, static_cast<std::size_t>(c) * p.buckets + h);
    ctx.arith(1);
  }
  co_await p.out->store(ctx, static_cast<std::size_t>(h), sum);
}

/// Cross-PCF: register anchor from A, B through the ROC, per-thread count
/// in a register, one coalesced store (the Type-I output pattern).
KernelTask pcf_cross(ThreadCtx& ctx, CrossParams p) {
  const long g = ctx.global_thread_id();
  if (g >= p.na) co_return;
  const Point3 reg =
      co_await p.a->load_point(ctx, static_cast<std::size_t>(g));

  std::uint32_t count = 0;
  ctx.mark_phase(Phase::InterBlock);
  for (int j = 0; j < p.nb; ++j) {
    ctx.control(kLoopControlOps);
    const Point3 q =
        co_await p.b->ro_load_point(ctx, static_cast<std::size_t>(j));
    ctx.arith(kPcfPairOps);
    if (dist2(reg, q) < p.r2) ++count;
  }
  ctx.mark_phase(Phase::Output);
  co_await p.counts->store(ctx, static_cast<std::size_t>(g), count);
}

}  // namespace

std::size_t sdh_cross_shared_bytes(int /*block_size*/, int buckets) {
  return static_cast<std::size_t>(buckets) * sizeof(std::uint32_t);
}

SdhResult run_sdh_cross(vgpu::LaunchTarget target, const PointsSoA& anchors,
                        const PointsSoA& partners, double bucket_width,
                        int buckets, int block_size) {
  check(!anchors.empty() && !partners.empty(),
        "run_sdh_cross: empty point set");
  check(buckets > 0, "run_sdh_cross: need at least one bucket");
  check(bucket_width > 0.0, "run_sdh_cross: bucket width must be positive");
  check(block_size > 0 && block_size % 2 == 0,
        "run_sdh_cross: block size must be positive and even");

  const int na = static_cast<int>(anchors.size());
  const int nb = static_cast<int>(partners.size());
  const int grid = (na + block_size - 1) / block_size;

  DevicePoints da(anchors);
  DevicePoints db(partners);
  DeviceBuffer<std::uint64_t> out(static_cast<std::size_t>(buckets), 0);
  DeviceBuffer<std::uint32_t> scratch(
      static_cast<std::size_t>(grid) * buckets, 0);

  CrossParams p;
  p.a = &da;
  p.b = &db;
  p.out = &out;
  p.scratch = &scratch;
  p.width = bucket_width;
  p.buckets = buckets;
  p.na = na;
  p.nb = nb;

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes = sdh_cross_shared_bytes(block_size, buckets);
  KernelStats stats =
      target.launch(cfg, [&](ThreadCtx& ctx) { return sdh_cross(ctx, p); });

  LaunchConfig rcfg;
  rcfg.grid_dim = (buckets + block_size - 1) / block_size;
  rcfg.block_dim = block_size;
  stats.merge(target.launch(
      rcfg, [&](ThreadCtx& ctx) { return cross_reduce(ctx, p, grid); }));

  SdhResult result{Histogram(bucket_width, static_cast<std::size_t>(buckets)),
                   stats};
  for (int h = 0; h < buckets; ++h)
    result.hist.set_count(static_cast<std::size_t>(h),
                          out.host()[static_cast<std::size_t>(h)]);
  return result;
}

PcfResult run_pcf_cross(vgpu::LaunchTarget target, const PointsSoA& anchors,
                        const PointsSoA& partners, double radius,
                        int block_size) {
  check(!anchors.empty() && !partners.empty(),
        "run_pcf_cross: empty point set");
  check(radius > 0.0, "run_pcf_cross: radius must be positive");
  check(block_size > 0, "run_pcf_cross: block size must be positive");

  const int na = static_cast<int>(anchors.size());
  const int grid = (na + block_size - 1) / block_size;

  DevicePoints da(anchors);
  DevicePoints db(partners);
  DeviceBuffer<std::uint32_t> counts(static_cast<std::size_t>(na), 0);

  CrossParams p;
  p.a = &da;
  p.b = &db;
  p.counts = &counts;
  p.r2 = static_cast<float>(radius * radius);
  p.na = na;
  p.nb = static_cast<int>(partners.size());

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;

  PcfResult result;
  result.stats =
      target.launch(cfg, [&](ThreadCtx& ctx) { return pcf_cross(ctx, p); });
  for (const std::uint32_t c : counts.host()) result.pairs_within += c;
  return result;
}

}  // namespace tbs::kernels
