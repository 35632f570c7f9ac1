// Cost-model behaviour of the executor: coalescing segments, bank
// conflicts, atomic collision serialization, cache path accounting.
#include <gtest/gtest.h>

#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace tbs::vgpu {
namespace {

KernelStats run(Device& dev, const LaunchConfig& cfg, const KernelBody& b) {
  return dev.launch(cfg, b);
}

TEST(ExecCosts, CoalescedWarpLoadIsOneSegment) {
  Device dev;
  DeviceBuffer<float> buf(1024, 1.0f);
  LaunchConfig cfg{1, 32, 0};
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    (void)co_await buf.load(ctx, static_cast<std::size_t>(ctx.thread_id));
  });
  // 32 consecutive floats = 128 bytes; may straddle one line boundary
  // depending on allocation alignment.
  EXPECT_LE(stats.global_transactions, 2u);
  EXPECT_EQ(stats.global_loads, 32u);
}

TEST(ExecCosts, StridedWarpLoadFansOutToManySegments) {
  Device dev;
  DeviceBuffer<float> buf(32 * 64, 1.0f);
  LaunchConfig cfg{1, 32, 0};
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    // Stride of 64 floats = 256 bytes: every lane in its own 128B line.
    (void)co_await buf.load(ctx, static_cast<std::size_t>(ctx.thread_id) * 64);
  });
  EXPECT_GE(stats.global_transactions, 32u);
}

TEST(ExecCosts, SecondPassHitsL2) {
  Device dev;
  DeviceBuffer<float> buf(32, 1.0f);
  LaunchConfig cfg{1, 32, 0};
  // Two passes over the same lines in one launch: the first misses to
  // DRAM, the second hits every line the first brought into L2.
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    for (int pass = 0; pass < 2; ++pass)
      (void)co_await buf.load(ctx, static_cast<std::size_t>(ctx.thread_id));
  });
  EXPECT_GT(stats.dram_bytes, 0u);
  EXPECT_EQ(stats.l2_bytes, stats.dram_bytes);
}

TEST(ExecCosts, RocHitsAfterFirstTouchWithinBlock) {
  Device dev;
  DeviceBuffer<float> buf(256, 1.0f);
  LaunchConfig cfg{1, 32, 0};
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    float sink = 0.0f;
    for (int rep = 0; rep < 4; ++rep)
      for (int j = 0; j < 8; ++j)
        sink += co_await buf.ro_load(ctx, static_cast<std::size_t>(j) * 32 +
                                              ctx.lane);
    ctx.arith(static_cast<double>(sink) * 0.0);  // keep sink alive
  });
  EXPECT_EQ(stats.roc_loads, 32u * 32u);
  // First pass misses (8 lines), later passes hit in the read-only cache.
  EXPECT_GT(stats.roc_hit_bytes, 0u);
  EXPECT_GT(stats.roc_hit_bytes, stats.dram_bytes + stats.l2_bytes);
}

TEST(ExecCosts, SharedBroadcastHasNoConflicts) {
  Device dev;
  LaunchConfig cfg{1, 32, 256 * sizeof(float)};
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    auto sh = ctx.shared<float>(0, 256);
    co_await sh.store(ctx, ctx.thread_id, 1.0f);
    co_await ctx.sync();
    (void)co_await sh.load(ctx, 5);  // all lanes read the same word
  });
  EXPECT_EQ(stats.bank_conflict_extra, 0u);
}

TEST(ExecCosts, StrideTwoSharedAccessHasTwoWayConflicts) {
  Device dev;
  LaunchConfig cfg{1, 32, 64 * sizeof(float)};
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    auto sh = ctx.shared<float>(0, 64);
    // Lane t accesses word 2t: words 0,2,...,62 -> banks 0,2,..30 twice.
    co_await sh.store(ctx, 2 * ctx.lane, 1.0f);
  });
  // 32 lanes, 16 banks used, 2 distinct words per bank => 1 extra pass.
  EXPECT_EQ(stats.bank_conflict_extra, 1u);
}

TEST(ExecCosts, UnitStrideSharedAccessConflictFree) {
  Device dev;
  LaunchConfig cfg{1, 32, 32 * sizeof(float)};
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    auto sh = ctx.shared<float>(0, 32);
    co_await sh.store(ctx, ctx.lane, 1.0f);
  });
  EXPECT_EQ(stats.bank_conflict_extra, 0u);
}

TEST(ExecCosts, AtomicCollisionsSerialize) {
  Device dev;
  DeviceBuffer<std::uint64_t> sink(32, 0);
  LaunchConfig cfg{1, 32, 0};
  // All 32 lanes to one address.
  const auto contended = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    co_await sink.atomic_add(ctx, 0, 1ull);
  });
  // Each lane to its own address.
  const auto spread = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    co_await sink.atomic_add(ctx, static_cast<std::size_t>(ctx.lane), 1ull);
  });
  EXPECT_EQ(contended.atomic_collision_extra, 31u);
  EXPECT_EQ(spread.atomic_collision_extra, 0u);
  EXPECT_GT(contended.total_warp_cycles, spread.total_warp_cycles);
}

TEST(ExecCosts, SharedAtomicCollisionCostScales) {
  Device dev;
  LaunchConfig cfg{1, 32, 64 * sizeof(std::uint32_t)};
  const auto run_atomics = [&](int distinct) {
    return run(dev, cfg, [&, distinct](ThreadCtx& ctx) -> KernelTask {
      auto sh = ctx.shared<std::uint32_t>(0, 64);
      co_await sh.atomic_add(ctx, ctx.lane % distinct, 1u);
    });
  };
  const auto one = run_atomics(1);
  const auto many = run_atomics(32);
  EXPECT_GT(one.total_warp_cycles, many.total_warp_cycles);
  EXPECT_GT(one.shared_transactions, many.shared_transactions);
}

TEST(ExecCosts, BarrierAlignsWarpClocks) {
  // One warp does heavy work before the barrier; the block's cycle count
  // must reflect the slowest warp.
  Device dev;
  DeviceBuffer<std::uint64_t> sink(64, 0);
  LaunchConfig cfg{1, 64, sizeof(int)};
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    auto sh = ctx.shared<int>(0, 1);
    (void)sh;
    if (ctx.thread_id < 32) {
      for (int i = 0; i < 50; ++i)
        co_await sink.atomic_add(ctx, static_cast<std::size_t>(ctx.lane),
                                 1ull);
    }
    co_await ctx.sync();
  });
  // Both warps end at (nearly) the same clock: total ~ 2 * max_block.
  EXPECT_NEAR(stats.total_warp_cycles, 2.0 * stats.max_block_cycles,
              0.05 * stats.total_warp_cycles);
}

TEST(ExecCosts, ArithmeticFoldsAsMaxOverLanes) {
  Device dev;
  DeviceBuffer<int> out(32, 0);
  LaunchConfig cfg{1, 32, 0};
  // Lane t reports t*10 scalar ops; warp charge must be ~310, not ~4960.
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    ctx.arith(10.0 * ctx.thread_id);
    co_await out.store(ctx, static_cast<std::size_t>(ctx.thread_id), 1);
  });
  EXPECT_NEAR(stats.arith_warp_cycles, 310.0, 1.0);
  EXPECT_NEAR(stats.arith_ops, 10.0 * (31 * 32 / 2), 1.0);
}

TEST(ExecCosts, GlobalAtomicPortCyclesTracked) {
  Device dev;
  DeviceBuffer<std::uint64_t> sink(64, 0);
  LaunchConfig cfg{4, 64, 0};
  const auto stats = run(dev, cfg, [&](ThreadCtx& ctx) -> KernelTask {
    co_await sink.atomic_add(ctx, static_cast<std::size_t>(ctx.lane % 4),
                             1ull);
  });
  EXPECT_EQ(stats.global_atomics, 4u * 64u);
  EXPECT_GT(stats.global_atomic_port_cycles, 0.0);
  EXPECT_GE(stats.atomic_distinct_lines, 1u);
}

}  // namespace
}  // namespace tbs::vgpu
