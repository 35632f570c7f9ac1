#include "cpubase/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/error.hpp"

namespace tbs::cpubase {
namespace {

// The guided schedule deals out chunks of max(64, remaining / 2n) indices,
// so the pool width n sets the chunk schedule a loop runs. Each case runs the
// range checks at one width: one worker claims every chunk inline, a few
// workers share shrinking chunks, and a wide pool has more workers than the
// short ranges have chunks.
enum class PoolWidth { Inline, Few, Wide };

unsigned workers(PoolWidth w) {
  switch (w) {
    case PoolWidth::Inline: return 1;
    case PoolWidth::Few: return 3;
    case PoolWidth::Wide: return 8;
  }
  return 1;
}

class ScheduleParam : public ::testing::TestWithParam<PoolWidth> {};

TEST_P(ScheduleParam, CoversRangeExactlyOnce) {
  ThreadPool pool(workers(GetParam()));
  constexpr std::size_t kN = 10007;  // prime, exercises uneven chunking
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(pool, 0, kN, [&](unsigned, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(ScheduleParam, HandlesOffsetRanges) {
  ThreadPool pool(workers(GetParam()));
  std::atomic<long> sum{0};
  parallel_for(pool, 100, 200, [&](unsigned, std::size_t lo, std::size_t hi) {
    long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long>(i);
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST_P(ScheduleParam, EmptyRangeIsNoop) {
  ThreadPool pool(workers(GetParam()));
  std::atomic<int> calls{0};
  parallel_for(pool, 5, 5,
               [&](unsigned, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ScheduleParam,
                         ::testing::Values(PoolWidth::Inline, PoolWidth::Few,
                                           PoolWidth::Wide));

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int x = 0;
  pool.run_on_all([&](unsigned id) {
    EXPECT_EQ(id, 0u);
    ++x;
  });
  EXPECT_EQ(x, 1);
}

TEST(ThreadPool, RunOnAllReachesEveryWorker) {
  ThreadPool pool(6);
  std::vector<std::atomic<int>> seen(6);
  pool.run_on_all([&](unsigned id) { seen[id].fetch_add(1); });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 50; ++rep)
    pool.run_on_all([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 200);
}

TEST(ParallelFor, RejectsBadArguments) {
  ThreadPool pool(2);
  const auto noop = [](unsigned, std::size_t, std::size_t) {};
  EXPECT_THROW(parallel_for(pool, 5, 1, noop), CheckError);
}

}  // namespace
}  // namespace tbs::cpubase
