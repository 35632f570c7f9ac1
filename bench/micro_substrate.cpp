// google-benchmark micro benches for the simulator substrate itself:
// how fast the functional simulation executes (host-side throughput), so
// regressions in the executor's hot paths are visible.
#include <benchmark/benchmark.h>

#include "common/datagen.hpp"
#include "cpubase/cpu_stats.hpp"
#include "kernels/pcf.hpp"
#include "kernels/sdh.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/stream.hpp"

namespace {

using namespace tbs;

void BM_LaunchOverhead(benchmark::State& state) {
  vgpu::Device dev;
  vgpu::DeviceBuffer<int> out(256, 0);
  for (auto _ : state) {
    auto stats = dev.launch(vgpu::LaunchConfig{1, 256, 0},
                            [&](vgpu::ThreadCtx& ctx) -> vgpu::KernelTask {
                              co_await out.store(
                                  ctx,
                                  static_cast<std::size_t>(ctx.thread_id), 1);
                            });
    benchmark::DoNotOptimize(stats.global_stores);
  }
}
BENCHMARK(BM_LaunchOverhead);

// Same kernel as a stream launch (blocks on the block queue). The delta vs
// BM_LaunchOverhead is the pooled path's per-launch cost.
void BM_StreamLaunchOverhead(benchmark::State& state) {
  vgpu::Device dev;
  vgpu::Stream stream(dev);
  vgpu::DeviceBuffer<int> out(256, 0);
  for (auto _ : state) {
    auto stats = stream.launch(
        vgpu::LaunchConfig{1, 256, 0},
        [&](vgpu::ThreadCtx& ctx) -> vgpu::KernelTask {
          co_await out.store(ctx, static_cast<std::size_t>(ctx.thread_id), 1);
        });
    benchmark::DoNotOptimize(stats.global_stores);
  }
}
BENCHMARK(BM_StreamLaunchOverhead);

// Each benchmark thread owns a Device and a Stream and launches the same
// Reg-SHM-Out SDH (N=1024, B=256: four blocks) on it, so the threads:2 row
// is two devices launching at once, and threads:1 is one device alone.
// Wall time per launch: both devices' blocks share one block queue, so two
// launches at once cost less than two launches one after the other.
void BM_TwoDevicesLaunchAtOnce(benchmark::State& state) {
  vgpu::Device dev;
  vgpu::Stream stream(dev);
  const auto pts = uniform_box(1024, 10.0f, 3);
  const double width = pts.max_possible_distance() / 64 + 1e-4;
  for (auto _ : state) {
    auto r = kernels::run_sdh(stream, pts, width, 64,
                              kernels::SdhVariant::RegShmOut, 256);
    benchmark::DoNotOptimize(r.hist);
  }
}
BENCHMARK(BM_TwoDevicesLaunchAtOnce)->Threads(1)->Threads(2)->UseRealTime();

void BM_SharedLoadThroughput(benchmark::State& state) {
  vgpu::Device dev;
  const int iters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto stats = dev.launch(
        vgpu::LaunchConfig{1, 256, 1024},
        [&](vgpu::ThreadCtx& ctx) -> vgpu::KernelTask {
          auto sh = ctx.shared<float>(0, 256);
          co_await sh.store(ctx, ctx.thread_id, 1.0f);
          co_await ctx.sync();
          float acc = 0;
          for (int i = 0; i < iters; ++i)
            acc += co_await sh.load(ctx, (ctx.thread_id + i) % 256);
          ctx.arith(static_cast<double>(acc) * 0);
        });
    benchmark::DoNotOptimize(stats.shared_loads);
  }
  state.SetItemsProcessed(state.iterations() * 256 * iters);
}
BENCHMARK(BM_SharedLoadThroughput)->Arg(64)->Arg(256);

void BM_SimulatedPairsPerSecond_RegShm(benchmark::State& state) {
  vgpu::Device dev;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = uniform_box(n, 10.0f, 1);
  for (auto _ : state) {
    auto r = kernels::run_pcf(dev, pts, 2.0, kernels::PcfVariant::RegShm,
                              256);
    benchmark::DoNotOptimize(r.pairs_within);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(n) * (static_cast<long>(n) - 1) /
                          2);
}
BENCHMARK(BM_SimulatedPairsPerSecond_RegShm)->Arg(512)->Arg(1024);

void BM_SimulatedPairsPerSecond_SdhShuffle(benchmark::State& state) {
  vgpu::Device dev;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = uniform_box(n, 10.0f, 1);
  for (auto _ : state) {
    auto r = kernels::run_sdh(dev, pts, 0.5, 64,
                              kernels::SdhVariant::ShuffleOut, 128);
    benchmark::DoNotOptimize(r.hist);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(n) * (static_cast<long>(n) - 1) /
                          2);
}
BENCHMARK(BM_SimulatedPairsPerSecond_SdhShuffle)->Arg(512);

void BM_CpuSdhBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = uniform_box(n, 10.0f, 1);
  cpubase::ThreadPool pool;
  for (auto _ : state) {
    auto h = cpubase::cpu_sdh(pool, pts, 0.5, 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(n) * (static_cast<long>(n) - 1) /
                          2);
}
BENCHMARK(BM_CpuSdhBaseline)->Arg(2048)->Arg(4096);

}  // namespace
