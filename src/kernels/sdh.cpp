#include "kernels/sdh.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "kernels/distance.hpp"
#include "vgpu/buffer.hpp"

namespace tbs::kernels {

using vgpu::Device;
using vgpu::DeviceBuffer;
using vgpu::DevicePoints;
using vgpu::KernelStats;
using vgpu::KernelTask;
using vgpu::LaunchConfig;
using vgpu::Phase;
using vgpu::SharedPointsTile;
using vgpu::SharedSpan;
using vgpu::ThreadCtx;

namespace {

/// Everything an SDH kernel needs; copied into each lane's coroutine frame.
/// Pointees are owned by run_sdh and outlive the launch.
struct SdhParams {
  const DevicePoints* pts = nullptr;
  DeviceBuffer<std::uint64_t>* out = nullptr;      ///< final histogram
  DeviceBuffer<std::uint32_t>* scratch = nullptr;  ///< per-block private copies
  double width = 1.0;
  int buckets = 1;
  int n = 0;
};

// ---------------------------------------------------------------------------
// Direct-output variants (global atomics per pair).
// ---------------------------------------------------------------------------

/// Paper Algorithm 1: every load from global memory, every update a global
/// atomic. The yardstick everything else is measured against.
KernelTask sdh_naive(ThreadCtx& ctx, SdhParams p) {
  const long g = ctx.global_thread_id();
  if (g >= p.n) co_return;
  const Point3 reg = co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));
  ctx.mark_phase(Phase::InterBlock);
  for (long i = g + 1; i < p.n; ++i) {
    ctx.control(kLoopControlOps);
    const Point3 q = co_await p.pts->load_point(ctx, static_cast<std::size_t>(i));
    const float d = dist(reg, q);
    ctx.arith(kSdhPairOps);
    co_await p.out->atomic_add(
        ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)), 1ull);
  }
}

/// Paper Algorithm 2/3 pairwise stage (register anchor + shared R tile,
/// overwriting R's tile with L for the intra-block loop) with the
/// straightforward output stage: global atomics.
KernelTask sdh_reg_shm(ThreadCtx& ctx, SdhParams p) {
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
        const float d = dist(reg, q);
        ctx.arith(kSdhPairOps);
        co_await p.out->atomic_add(
            ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
            1ull);
      }
    }
    co_await ctx.sync();
  }

  // Intra-block: overwrite the R tile with this block's own data (the
  // paper's shared-memory-saving trick), then the triangular loop.
  ctx.mark_phase(Phase::IntraBlock);
  if (active) co_await tile.store_point(ctx, t, reg);
  co_await ctx.sync();
  const int lim_l = static_cast<int>(
      std::min<long>(B, p.n - static_cast<long>(b) * B));
  for (int i = t + 1; i < lim_l; ++i) {
    ctx.control(kLoopControlOps);
    const Point3 q = co_await tile.load_point(ctx, i);
    const float d = dist(reg, q);
    ctx.arith(kSdhPairOps);
    co_await p.out->atomic_add(
        ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
        1ull);
  }
}

/// Register anchor + read-only-cache R loads; global-atomic output.
KernelTask sdh_reg_roc(ThreadCtx& ctx, SdhParams p) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const long g = static_cast<long>(b) * B + t;
  if (g >= p.n) co_return;
  const Point3 reg =
      co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));

  ctx.mark_phase(Phase::InterBlock);
  for (int i = b + 1; i < M; ++i) {
    const long base = static_cast<long>(i) * B;
    const int lim = static_cast<int>(std::min<long>(B, p.n - base));
    for (int j = 0; j < lim; ++j) {
      ctx.control(kLoopControlOps);
      const Point3 q = co_await p.pts->ro_load_point(
          ctx, static_cast<std::size_t>(base + j));
      const float d = dist(reg, q);
      ctx.arith(kSdhPairOps);
      co_await p.out->atomic_add(
          ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
          1ull);
    }
  }

  ctx.mark_phase(Phase::IntraBlock);
  const long base_l = static_cast<long>(b) * B;
  const int lim_l = static_cast<int>(std::min<long>(B, p.n - base_l));
  for (int i = t + 1; i < lim_l; ++i) {
    ctx.control(kLoopControlOps);
    const Point3 q = co_await p.pts->ro_load_point(
        ctx, static_cast<std::size_t>(base_l + i));
    const float d = dist(reg, q);
    ctx.arith(kSdhPairOps);
    co_await p.out->atomic_add(
        ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
        1ull);
  }
}

// ---------------------------------------------------------------------------
// Privatized-output variants (paper Algorithm 3 + Fig. 3): one private
// histogram per block in shared memory, shared-memory atomics per pair,
// then a parallel flush to global scratch; a separate reduction kernel
// combines the private copies.
// ---------------------------------------------------------------------------

/// Naive pairwise stage + privatized output.
KernelTask sdh_naive_out(ThreadCtx& ctx, SdhParams p) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const long g = static_cast<long>(b) * B + t;
  auto hist =
      ctx.shared<std::uint32_t>(0, static_cast<std::size_t>(p.buckets));
  for (int h = t; h < p.buckets; h += B) co_await hist.store(ctx, h, 0u);
  co_await ctx.sync();

  if (g < p.n) {
    const Point3 reg =
        co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));
    ctx.mark_phase(Phase::InterBlock);
    for (long i = g + 1; i < p.n; ++i) {
      ctx.control(kLoopControlOps);
      const Point3 q =
          co_await p.pts->load_point(ctx, static_cast<std::size_t>(i));
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

/// Paper Algorithm 3 in full: register + SHM tile pairwise, privatized out.
/// `load_balanced` switches the intra-block loop to the Sec. IV-E1 scheme
/// (thread t pairs with (t+j) mod B, uniform B/2 trip count, divergence-
/// free); requires N to fill the block evenly for the balanced path.
KernelTask sdh_reg_shm_out(ThreadCtx& ctx, SdhParams p, bool load_balanced) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.n;

  SharedPointsTile tile(ctx, 0, static_cast<std::size_t>(B));
  auto hist = ctx.shared<std::uint32_t>(SharedPointsTile::bytes(
                                            static_cast<std::size_t>(B)),
                                        static_cast<std::size_t>(p.buckets));
  for (int h = t; h < p.buckets; h += B) co_await hist.store(ctx, h, 0u);

  Point3 reg{};
  if (active)
    reg = co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));
  co_await ctx.sync();

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
        const float d = dist(reg, q);
        ctx.arith(kSdhPairOps);
        co_await hist.atomic_add(
            ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
            1u);
      }
    }
    co_await ctx.sync();
  }

  ctx.mark_phase(Phase::IntraBlock);
  if (active) co_await tile.store_point(ctx, t, reg);
  co_await ctx.sync();
  const int lim_l = static_cast<int>(
      std::min<long>(B, p.n - static_cast<long>(b) * B));

  if (load_balanced && lim_l == B) {
    // Sec. IV-E1: iteration j pairs thread t with datum (t+j) mod B; every
    // thread performs exactly B/2 iterations (the final iteration is done
    // by the lower half only — no divergence since B is a warp multiple).
    const int half = B / 2;
    for (int j = 1; j <= half; ++j) {
      ctx.control(kLoopControlOps);
      if (j == half && t >= half) break;
      const int idx = t + j < B ? t + j : t + j - B;
      const Point3 q = co_await tile.load_point(ctx, idx);
      const float d = dist(reg, q);
      ctx.arith(kSdhPairOps);
      co_await hist.atomic_add(
          ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
          1u);
    }
  } else {
    for (int i = t + 1; i < lim_l; ++i) {
      ctx.control(kLoopControlOps);
      const Point3 q = co_await tile.load_point(ctx, i);
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

/// Register + ROC pairwise, privatized out — the paper's overall winner for
/// Type-II (combines both cache systems).
KernelTask sdh_reg_roc_out(ThreadCtx& ctx, SdhParams p) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.n;

  auto hist =
      ctx.shared<std::uint32_t>(0, static_cast<std::size_t>(p.buckets));
  for (int h = t; h < p.buckets; h += B) co_await hist.store(ctx, h, 0u);

  Point3 reg{};
  if (active)
    reg = co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));
  co_await ctx.sync();

  if (active) {
    ctx.mark_phase(Phase::InterBlock);
    for (int i = b + 1; i < M; ++i) {
      const long base = static_cast<long>(i) * B;
      const int lim = static_cast<int>(std::min<long>(B, p.n - base));
      for (int j = 0; j < lim; ++j) {
        ctx.control(kLoopControlOps);
        const Point3 q = co_await p.pts->ro_load_point(
            ctx, static_cast<std::size_t>(base + j));
        const float d = dist(reg, q);
        ctx.arith(kSdhPairOps);
        co_await hist.atomic_add(
            ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
            1u);
      }
    }
    ctx.mark_phase(Phase::IntraBlock);
    const long base_l = static_cast<long>(b) * B;
    const int lim_l = static_cast<int>(std::min<long>(B, p.n - base_l));
    for (int i = t + 1; i < lim_l; ++i) {
      ctx.control(kLoopControlOps);
      const Point3 q = co_await p.pts->ro_load_point(
          ctx, static_cast<std::size_t>(base_l + i));
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

/// Paper Algorithm 4 (Sec. IV-E2): tile R through warp registers using
/// shuffle broadcasts — no shared memory or ROC needed for the pairwise
/// stage (output is still privatized). Loads stay uniform across the warp
/// (clamped indices) so every lane participates in every shuffle.
KernelTask sdh_shuffle_out(ThreadCtx& ctx, SdhParams p) {
  constexpr int w = 32;
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const int lane = ctx.lane;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.n;

  auto hist =
      ctx.shared<std::uint32_t>(0, static_cast<std::size_t>(p.buckets));
  for (int h = t; h < p.buckets; h += B) co_await hist.store(ctx, h, 0u);

  const auto clamped = [&p](long i) {
    return static_cast<std::size_t>(std::min<long>(i, p.n - 1));
  };
  const Point3 reg0 = co_await p.pts->load_point(ctx, clamped(g));
  co_await ctx.sync();

  ctx.mark_phase(Phase::InterBlock);
  for (int i = b + 1; i < M; ++i) {
    for (int j = lane; j < B; j += w) {
      const long src = static_cast<long>(i) * B + j;
      const Point3 reg1 = co_await p.pts->load_point(ctx, clamped(src));
      for (int k = 0; k < w; ++k) {
        ctx.control(kLoopControlOps);
        Point3 q;
        q.x = co_await ctx.shfl(reg1.x, k);
        q.y = co_await ctx.shfl(reg1.y, k);
        q.z = co_await ctx.shfl(reg1.z, k);
        const long q_idx = static_cast<long>(i) * B + (j - lane) + k;
        if (active && q_idx < p.n) {
          const float d = dist(reg0, q);
          ctx.arith(kSdhPairOps);
          co_await hist.atomic_add(
              ctx,
              static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
              1u);
        }
      }
    }
  }

  // Intra-block with the same shuffle tiling over the block's own data;
  // the q_idx > g predicate keeps each unordered pair counted once.
  ctx.mark_phase(Phase::IntraBlock);
  for (int j = lane; j < B; j += w) {
    const long src = static_cast<long>(b) * B + j;
    const Point3 reg1 = co_await p.pts->load_point(ctx, clamped(src));
    for (int k = 0; k < w; ++k) {
      ctx.control(kLoopControlOps);
      Point3 q;
      q.x = co_await ctx.shfl(reg1.x, k);
      q.y = co_await ctx.shfl(reg1.y, k);
      q.z = co_await ctx.shfl(reg1.z, k);
      const long q_idx = static_cast<long>(b) * B + (j - lane) + k;
      if (active && q_idx < p.n && q_idx > g) {
        const float d = dist(reg0, q);
        ctx.arith(kSdhPairOps);
        co_await hist.atomic_add(
            ctx, static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)),
            1u);
      }
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

/// Reg-SHM pairwise stage with `copies` interleaved private histograms per
/// block: thread t updates sub-histogram t % copies, and copy c of bucket b
/// lives at word b*copies + c so same-bucket updates from different lanes
/// land in different banks. copies == 1 degenerates to Algorithm 3.
KernelTask sdh_multi_copy(ThreadCtx& ctx, SdhParams p, int copies) {
  const int B = ctx.block_dim;
  const int t = ctx.thread_id;
  const int b = ctx.block_id;
  const int M = ctx.grid_dim;
  const long g = static_cast<long>(b) * B + t;
  const bool active = g < p.n;
  const int my_copy = t % copies;

  SharedPointsTile tile(ctx, 0, static_cast<std::size_t>(B));
  auto hists = ctx.shared<std::uint32_t>(
      SharedPointsTile::bytes(static_cast<std::size_t>(B)),
      static_cast<std::size_t>(p.buckets) * copies);
  for (int h = t; h < p.buckets * copies; h += B)
    co_await hists.store(ctx, h, 0u);

  Point3 reg{};
  if (active)
    reg = co_await p.pts->load_point(ctx, static_cast<std::size_t>(g));
  co_await ctx.sync();

  const auto update = [&](float d) {
    return hists.atomic_add(
        ctx,
        static_cast<std::size_t>(bucket_of(d, p.width, p.buckets)) * copies +
            static_cast<std::size_t>(my_copy),
        1u);
  };

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
        const float d = dist(reg, q);
        ctx.arith(kSdhPairOps);
        co_await update(d);
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
    const float d = dist(reg, q);
    ctx.arith(kSdhPairOps);
    co_await update(d);
  }

  // Flush: in-block combine of the copies, then one write per bucket.
  co_await ctx.sync();
  ctx.mark_phase(Phase::Output);
  for (int h = t; h < p.buckets; h += B) {
    std::uint32_t sum = 0;
    for (int c = 0; c < copies; ++c) {
      ctx.control(kLoopControlOps);
      sum += co_await hists.load(
          ctx, static_cast<std::size_t>(h) * copies + c);
      ctx.arith(1);
    }
    co_await p.scratch->store(
        ctx, static_cast<std::size_t>(b) * p.buckets + h, sum);
  }
}

/// Reduction kernel (paper Fig. 3, bottom): one thread per output bucket
/// sums the M private copies.
KernelTask sdh_reduce(ThreadCtx& ctx, SdhParams p, int copies) {
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

}  // namespace

const char* to_string(SdhVariant v) {
  switch (v) {
    case SdhVariant::Naive: return "Naive";
    case SdhVariant::RegShm: return "Register-SHM";
    case SdhVariant::RegRoc: return "Register-ROC";
    case SdhVariant::NaiveOut: return "Naive-Out";
    case SdhVariant::RegShmOut: return "Reg-SHM-Out";
    case SdhVariant::RegRocOut: return "Reg-ROC-Out";
    case SdhVariant::RegShmLb: return "Reg-SHM-LB";
    case SdhVariant::ShuffleOut: return "Shuffle";
  }
  return "?";
}

bool is_privatized(SdhVariant v) {
  switch (v) {
    case SdhVariant::Naive:
    case SdhVariant::RegShm:
    case SdhVariant::RegRoc:
      return false;
    default:
      return true;
  }
}

std::size_t sdh_shared_bytes(SdhVariant v, int block_size, int buckets) {
  const std::size_t tile =
      SharedPointsTile::bytes(static_cast<std::size_t>(block_size));
  const std::size_t hist =
      static_cast<std::size_t>(buckets) * sizeof(std::uint32_t);
  switch (v) {
    case SdhVariant::Naive:
    case SdhVariant::RegRoc:
      return 0;
    case SdhVariant::RegShm:
      return tile;
    case SdhVariant::NaiveOut:
    case SdhVariant::RegRocOut:
    case SdhVariant::ShuffleOut:
      return hist;
    case SdhVariant::RegShmOut:
    case SdhVariant::RegShmLb:
      return tile + hist;
  }
  return 0;
}

SdhResult run_sdh(vgpu::LaunchTarget target, const PointsSoA& pts,
                  double bucket_width, int buckets, SdhVariant variant,
                  int block_size) {
  check(!pts.empty(), "run_sdh: empty point set");
  check(buckets > 0, "run_sdh: need at least one bucket");
  check(bucket_width > 0.0, "run_sdh: bucket width must be positive");
  check(block_size > 0 && block_size % 2 == 0,
        "run_sdh: block size must be positive and even");

  const int n = static_cast<int>(pts.size());
  const int grid = (n + block_size - 1) / block_size;

  DevicePoints dpts(pts);
  DeviceBuffer<std::uint64_t> out(static_cast<std::size_t>(buckets), 0);
  DeviceBuffer<std::uint32_t> scratch;
  if (is_privatized(variant))
    scratch = DeviceBuffer<std::uint32_t>(
        static_cast<std::size_t>(grid) * buckets, 0);

  SdhParams p;
  p.pts = &dpts;
  p.out = &out;
  p.scratch = &scratch;
  p.width = bucket_width;
  p.buckets = buckets;
  p.n = n;

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes = sdh_shared_bytes(variant, block_size, buckets);

  const auto body = [&](ThreadCtx& ctx) -> KernelTask {
    switch (variant) {
      case SdhVariant::Naive: return sdh_naive(ctx, p);
      case SdhVariant::RegShm: return sdh_reg_shm(ctx, p);
      case SdhVariant::RegRoc: return sdh_reg_roc(ctx, p);
      case SdhVariant::NaiveOut: return sdh_naive_out(ctx, p);
      case SdhVariant::RegShmOut:
        return sdh_reg_shm_out(ctx, p, /*load_balanced=*/false);
      case SdhVariant::RegShmLb:
        return sdh_reg_shm_out(ctx, p, /*load_balanced=*/true);
      case SdhVariant::RegRocOut: return sdh_reg_roc_out(ctx, p);
      case SdhVariant::ShuffleOut: return sdh_shuffle_out(ctx, p);
    }
    fail("run_sdh: unknown variant");
  };
  KernelStats stats = target.launch(cfg, body);

  if (is_privatized(variant)) {
    LaunchConfig rcfg;
    rcfg.grid_dim = (buckets + block_size - 1) / block_size;
    rcfg.block_dim = block_size;
    const KernelStats rstats = target.launch(rcfg, [&](ThreadCtx& ctx) {
      return sdh_reduce(ctx, p, grid);
    });
    stats.merge(rstats);
  }

  SdhResult result{Histogram(bucket_width, static_cast<std::size_t>(buckets)),
                   stats};
  for (int h = 0; h < buckets; ++h)
    result.hist.set_count(static_cast<std::size_t>(h),
                          out.host()[static_cast<std::size_t>(h)]);
  return result;
}

SdhResult run_sdh_private_copies(Device& dev, const PointsSoA& pts,
                                 double bucket_width, int buckets,
                                 int block_size, int copies) {
  check(!pts.empty(), "run_sdh_private_copies: empty point set");
  check(copies >= 1 && copies <= block_size / 32,
        "run_sdh_private_copies: copies must be in [1, warps per block]");
  check(bucket_width > 0.0 && buckets > 0 && block_size > 0 &&
            block_size % 32 == 0,
        "run_sdh_private_copies: bad geometry");

  const int n = static_cast<int>(pts.size());
  const int grid = (n + block_size - 1) / block_size;

  DevicePoints dpts(pts);
  DeviceBuffer<std::uint64_t> out(static_cast<std::size_t>(buckets), 0);
  DeviceBuffer<std::uint32_t> scratch(
      static_cast<std::size_t>(grid) * buckets, 0);

  SdhParams p;
  p.pts = &dpts;
  p.out = &out;
  p.scratch = &scratch;
  p.width = bucket_width;
  p.buckets = buckets;
  p.n = n;

  LaunchConfig cfg;
  cfg.grid_dim = grid;
  cfg.block_dim = block_size;
  cfg.shared_bytes =
      SharedPointsTile::bytes(static_cast<std::size_t>(block_size)) +
      static_cast<std::size_t>(buckets) * copies * sizeof(std::uint32_t);
  check(cfg.shared_bytes <= dev.spec().shared_mem_per_block_cap,
        "run_sdh_private_copies: copies exceed shared-memory budget");

  KernelStats stats = dev.launch(cfg, [&](ThreadCtx& ctx) {
    return sdh_multi_copy(ctx, p, copies);
  });

  LaunchConfig rcfg;
  rcfg.grid_dim = (buckets + block_size - 1) / block_size;
  rcfg.block_dim = block_size;
  stats.merge(dev.launch(
      rcfg, [&](ThreadCtx& ctx) { return sdh_reduce(ctx, p, grid); }));

  SdhResult result{Histogram(bucket_width, static_cast<std::size_t>(buckets)),
                   stats};
  for (int h = 0; h < buckets; ++h)
    result.hist.set_count(static_cast<std::size_t>(h),
                          out.host()[static_cast<std::size_t>(h)]);
  return result;
}

}  // namespace tbs::kernels
