// Stream runtime semantics: a stream launch runs before it returns, with
// its blocks on the block queue, and its counters are bit-identical to the
// inline Device launch; launches on different devices run at once;
// LaunchTarget keeps each path's mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/stream.hpp"

namespace tbs::vgpu {
namespace {

// Configure the block queue before anything in the process creates it, so
// these tests exercise real cross-thread execution even on 1-core hosts.
const bool kWorkersConfigured = [] {
  set_async_worker_count(4);
  return true;
}();

KernelBody store_body(DeviceBuffer<int>& out, int value) {
  return [&out, value](ThreadCtx& ctx) -> KernelTask {
    co_await out.store(ctx, static_cast<std::size_t>(ctx.global_thread_id()),
                       value);
  };
}

TEST(Stream, PoolUsesConfiguredWorkerCount) {
  ASSERT_TRUE(kWorkersConfigured);
  EXPECT_EQ(async_worker_count(), 4u);
}

TEST(Stream, LaunchesOnTwoDevicesRunAtOnce) {
  // The first lane of every block marks its device as running, then waits
  // (up to a deadline) until a block of the other device runs too. Both
  // launches finish without a timeout only if blocks of the two devices
  // ran at the same time.
  std::atomic<unsigned> running{0};
  std::atomic<int> timeouts{0};
  const auto body_for = [&](unsigned device_bit) -> KernelBody {
    return [&running, &timeouts, device_bit](ThreadCtx& ctx) -> KernelTask {
      if (ctx.thread_id == 0) {
        running.fetch_or(device_bit);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (running.load() != 3u) {
          if (std::chrono::steady_clock::now() > deadline) {
            timeouts.fetch_add(1);
            break;
          }
          std::this_thread::yield();
        }
      }
      co_return;
    };
  };

  Device dev_a;
  Device dev_b;
  Stream stream_a(dev_a);
  Stream stream_b(dev_b);
  const LaunchConfig cfg{2, 32, 0};
  std::exception_ptr other_error;
  std::thread other([&] {
    try {
      (void)stream_b.launch(cfg, body_for(2u));
    } catch (...) {
      other_error = std::current_exception();
    }
  });
  (void)stream_a.launch(cfg, body_for(1u));
  other.join();
  if (other_error) std::rethrow_exception(other_error);
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(dev_a.launch_count(), 1u);
  EXPECT_EQ(dev_b.launch_count(), 1u);
}

TEST(Stream, LaunchValidatesConfigBeforeRunning) {
  Device dev;
  Stream stream(dev);
  DeviceBuffer<int> out(64, -1);
  EXPECT_THROW(stream.launch(LaunchConfig{0, 64, 0}, store_body(out, 1)),
               CheckError);
  EXPECT_EQ(dev.launch_count(), 0u);  // nothing ran
  EXPECT_EQ(out.host()[0], -1);
}

TEST(Stream, FailureRethrowsAndTheStreamRecovers) {
  Device dev;
  Stream stream(dev);
  DeviceBuffer<int> out(64, -1);

  EXPECT_THROW(stream.launch(LaunchConfig{1, 64, 0},
                             [](ThreadCtx&) -> KernelTask {
                               throw std::runtime_error("kernel exploded");
                             }),
               std::runtime_error);
  EXPECT_EQ(dev.launch_count(), 0u);

  // The stream is usable again after the failure.
  EXPECT_NO_THROW(stream.launch(LaunchConfig{1, 64, 0}, store_body(out, 7)));
  EXPECT_EQ(out.host()[0], 7);
}

TEST(Stream, AsyncCountersMatchInlineLaunchBitExactly) {
  // Same multi-block, atomic-heavy kernel through both paths on fresh
  // devices; every counter must agree (the runtime's core invariant).
  const auto body = [](DeviceBuffer<std::uint32_t>& hist) {
    return [&hist](ThreadCtx& ctx) -> KernelTask {
      const auto bucket =
          static_cast<std::size_t>(ctx.global_thread_id()) % hist.size();
      co_await hist.atomic_add(ctx, bucket, 1u);
    };
  };
  const LaunchConfig cfg{8, 128, 0};

  Device dev_inline;
  DeviceBuffer<std::uint32_t> hist_inline(16, 0);
  const KernelStats inline_stats =
      dev_inline.launch(cfg, body(hist_inline));

  Device dev_async;
  DeviceBuffer<std::uint32_t> hist_async(16, 0);
  Stream stream(dev_async);
  const KernelStats async_stats = stream.launch(cfg, body(hist_async));

  EXPECT_EQ(inline_stats, async_stats);
  for (std::size_t i = 0; i < hist_inline.size(); ++i)
    EXPECT_EQ(hist_inline.host()[i], hist_async.host()[i]);
}

TEST(Stream, LaunchCountAdvancesWhenTheLaunchRuns) {
  Device dev;
  Stream stream(dev);
  DeviceBuffer<int> out(64, -1);
  const std::uint64_t before = dev.launch_count();
  (void)stream.launch(LaunchConfig{1, 64, 0}, store_body(out, 1));
  EXPECT_EQ(dev.launch_count(), before + 1);
  EXPECT_EQ(out.host()[0], 1);  // the result is visible on return
}

TEST(LaunchTarget, DeviceRunsInlineAndStreamRunsPooled) {
  Device dev;
  Stream stream(dev);
  std::vector<bool> pooled;
  dev.set_launch_observer(
      [&pooled](const LaunchRecord& rec) { pooled.push_back(rec.pooled); });
  DeviceBuffer<int> out(128, -1);
  const LaunchConfig cfg{2, 64, 0};

  const LaunchTarget inline_target = dev;
  const LaunchTarget pooled_target = stream;
  EXPECT_EQ(&inline_target.device(), &dev);
  EXPECT_EQ(&pooled_target.device(), &dev);
  (void)inline_target.launch(cfg, store_body(out, 1));
  (void)pooled_target.launch(cfg, store_body(out, 2));
  (void)dev.launch(cfg, store_body(out, 3));
  (void)stream.launch(cfg, store_body(out, 4));
  EXPECT_EQ(pooled, (std::vector<bool>{false, true, false, true}));
  EXPECT_EQ(out.host()[127], 4);
}

}  // namespace
}  // namespace tbs::vgpu
