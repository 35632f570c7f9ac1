// Edge cases and failure modes of the SIMT executor: deadlock detection,
// shuffle misuse, determinism, device isolation, partial warps.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace tbs::vgpu {
namespace {

TEST(ExecEdge, BarrierDivergenceIsDetectedAsDeadlock) {
  // Half the block waits at a barrier the other half never reaches (it
  // returned) — legal. But if the other half *blocks on a shuffle* that
  // can never complete, the executor must diagnose a deadlock instead of
  // spinning forever.
  Device dev;
  LaunchConfig cfg{1, 64, 0};
  EXPECT_THROW(
      dev.launch(cfg,
                 [&](ThreadCtx& ctx) -> KernelTask {
                   if (ctx.lane == 0) {
                     co_await ctx.sync();  // waits for whole block
                   } else {
                     // lanes 1..31 shuffle; lane 0 never joins -> stuck
                     (void)co_await ctx.shfl(1, 0);
                   }
                 }),
      tbs::CheckError);
}

TEST(ExecEdge, UniformShuffleAfterPredicatedPathWorks) {
  // Lanes take different side paths (some do an atomic) but all reconverge
  // at the shuffle — the executor must defer the shuffle until every live
  // lane arrives, then deliver correct values.
  Device dev;
  DeviceBuffer<std::uint64_t> sink(32, 0);
  DeviceBuffer<int> out(32, -1);
  LaunchConfig cfg{1, 32, 0};
  dev.launch(cfg, [&](ThreadCtx& ctx) -> KernelTask {
    const int mine = 100 + ctx.lane;
    if (ctx.lane % 3 == 0)
      co_await sink.atomic_add(ctx, static_cast<std::size_t>(ctx.lane), 1ull);
    const int got = co_await ctx.shfl(mine, (ctx.lane + 5) % 32);
    co_await out.store(ctx, static_cast<std::size_t>(ctx.lane), got);
  });
  for (int lane = 0; lane < 32; ++lane)
    EXPECT_EQ(out.host()[static_cast<std::size_t>(lane)],
              100 + (lane + 5) % 32);
}

TEST(ExecEdge, LaunchesAreDeterministic) {
  // Two identical launches must produce bit-identical counters (the whole
  // reproduction depends on this property).
  const auto run_once = [] {
    Device dev;
    DeviceBuffer<std::uint32_t> hist(64, 0);
    LaunchConfig cfg{4, 128, 64 * sizeof(std::uint32_t)};
    return dev.launch(cfg, [&](ThreadCtx& ctx) -> KernelTask {
      auto sh = ctx.shared<std::uint32_t>(0, 64);
      co_await sh.store(ctx, ctx.thread_id % 64, 0u);
      co_await ctx.sync();
      for (int i = 0; i < 10; ++i) {
        ctx.arith(7);
        co_await sh.atomic_add(ctx, (ctx.thread_id * 13 + i) % 64, 1u);
      }
      co_await ctx.sync();
      if (ctx.thread_id < 64) {
        const std::uint32_t v = co_await sh.load(ctx, ctx.thread_id);
        co_await hist.atomic_add(ctx, static_cast<std::size_t>(
                                          ctx.thread_id % 8),
                                 v);
      }
    });
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.total_warp_cycles, b.total_warp_cycles);
  EXPECT_EQ(a.shared_transactions, b.shared_transactions);
  EXPECT_EQ(a.atomic_collision_extra, b.atomic_collision_extra);
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
}

TEST(ExecEdge, ManyWarpsPerBlockBarrierStress) {
  // 32 warps (the maximum block) repeatedly synchronizing.
  Device dev;
  DeviceBuffer<std::uint64_t> acc(1, 0);
  LaunchConfig cfg{1, 1024, sizeof(std::uint32_t)};
  const auto stats = dev.launch(cfg, [&](ThreadCtx& ctx) -> KernelTask {
    auto sh = ctx.shared<std::uint32_t>(0, 1);
    for (int round = 0; round < 5; ++round) {
      if (ctx.thread_id == round) co_await sh.store(ctx, 0, 1u + round);
      co_await ctx.sync();
      const std::uint32_t v = co_await sh.load(ctx, 0);
      if (ctx.thread_id == 0)
        co_await acc.atomic_add(ctx, 0, static_cast<std::uint64_t>(v));
      co_await ctx.sync();
    }
  });
  EXPECT_EQ(acc.host()[0], 1u + 2 + 3 + 4 + 5);
  EXPECT_EQ(stats.barriers, 1024u * 10);
}

TEST(ExecEdge, PhaseAccountingSumsToTotal) {
  Device dev;
  DeviceBuffer<std::uint64_t> sink(32, 0);
  LaunchConfig cfg{2, 64, 0};
  const auto stats = dev.launch(cfg, [&](ThreadCtx& ctx) -> KernelTask {
    ctx.mark_phase(Phase::InterBlock);
    for (int i = 0; i < 4; ++i)
      co_await sink.atomic_add(ctx, static_cast<std::size_t>(ctx.lane), 1ull);
    ctx.mark_phase(Phase::Output);
    co_await sink.atomic_add(ctx, 0, 1ull);
  });
  double phase_sum = 0.0;
  for (const auto& [id, cycles] : stats.phase_cycles) phase_sum += cycles;
  EXPECT_NEAR(phase_sum, stats.total_warp_cycles,
              1e-6 * stats.total_warp_cycles + 1e-9);
}

TEST(ExecEdge, SingleThreadBlockWorks) {
  Device dev;
  DeviceBuffer<int> out(1, 0);
  const auto stats =
      dev.launch(LaunchConfig{1, 1, 16}, [&](ThreadCtx& ctx) -> KernelTask {
        auto sh = ctx.shared<int>(0, 4);
        co_await sh.store(ctx, 0, 41);
        co_await ctx.sync();  // single-thread barrier is trivial
        const int v = co_await sh.load(ctx, 0);
        co_await out.store(ctx, 0, v + 1);
      });
  EXPECT_EQ(out.host()[0], 42);
  EXPECT_EQ(stats.barriers, 1u);
}

TEST(ExecEdge, InterleavedKernelsOnSeparateDevicesAreIsolated) {
  Device dev_a, dev_b;
  DeviceBuffer<float> buf(32, 1.0f);
  LaunchConfig cfg{1, 32, 0};
  const auto body = [&](ThreadCtx& ctx) -> KernelTask {
    (void)co_await buf.load(ctx, static_cast<std::size_t>(ctx.lane));
  };
  (void)dev_a.launch(cfg, body);  // leaves no cache state anywhere
  const auto on_b = dev_b.launch(cfg, body);
  EXPECT_GT(on_b.dram_bytes, 0u) << "dev_b must not see dev_a's cache";
}

TEST(ExecEdge, SharedAtomicMinFindsMinimum) {
  Device dev;
  DeviceBuffer<float> out(4, 0.0f);
  LaunchConfig cfg{4, 64, sizeof(float)};
  dev.launch(cfg, [&](ThreadCtx& ctx) -> KernelTask {
    auto best = ctx.shared<float>(0, 1);
    if (ctx.thread_id == 0)
      co_await best.store(ctx, 0, std::numeric_limits<float>::max());
    co_await ctx.sync();
    // Thread t contributes a value that depends on block and thread.
    const float mine =
        100.0f + static_cast<float>((ctx.thread_id * 13 + ctx.block_id) % 59);
    (void)co_await best.atomic_min(ctx, 0, mine);
    co_await ctx.sync();
    if (ctx.thread_id == 0) {
      const float v = co_await best.load(ctx, 0);
      co_await out.store(ctx, static_cast<std::size_t>(ctx.block_id), v);
    }
  });
  for (int b = 0; b < 4; ++b) {
    float expected = std::numeric_limits<float>::max();
    for (int t = 0; t < 64; ++t)
      expected = std::min(expected,
                          100.0f + static_cast<float>((t * 13 + b) % 59));
    EXPECT_FLOAT_EQ(out.host()[static_cast<std::size_t>(b)], expected);
  }
}

TEST(ExecEdge, AtomicMinReturnsPreviousValue) {
  Device dev;
  DeviceBuffer<int> seen(1, -1);
  LaunchConfig cfg{1, 1, sizeof(int)};
  dev.launch(cfg, [&](ThreadCtx& ctx) -> KernelTask {
    auto sh = ctx.shared<int>(0, 1);
    co_await sh.store(ctx, 0, 10);
    const int old = co_await sh.atomic_min(ctx, 0, 3);
    co_await seen.store(ctx, 0, old);
  });
  EXPECT_EQ(seen.host()[0], 10);
}

}  // namespace
}  // namespace tbs::vgpu
