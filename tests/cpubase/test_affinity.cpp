#include "cpubase/affinity.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace tbs::cpubase {
namespace {

TEST(AffinityMap, NonePinsNothing) {
  const auto map = affinity_map(Affinity::None, 4, 8);
  for (const int core : map) EXPECT_EQ(core, -1);
}

TEST(AffinityMap, ScatterRoundRobins) {
  const auto map = affinity_map(Affinity::Scatter, 6, 4);
  EXPECT_EQ(map, (std::vector<int>{0, 1, 2, 3, 0, 1}));
}

TEST(AffinityMap, CompactPacks) {
  const auto map = affinity_map(Affinity::Compact, 8, 4);
  // 2 threads per core, consecutive.
  EXPECT_EQ(map, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
}

TEST(AffinityMap, BalancedPartitionsEvenly) {
  const auto map = affinity_map(Affinity::Balanced, 4, 8);
  EXPECT_EQ(map, (std::vector<int>{0, 2, 4, 6}));
}

TEST(AffinityMap, AllCoresInRange) {
  for (const auto policy :
       {Affinity::Scatter, Affinity::Compact, Affinity::Balanced}) {
    for (unsigned threads : {1u, 3u, 8u, 17u}) {
      for (unsigned cores : {1u, 2u, 6u}) {
        const auto map = affinity_map(policy, threads, cores);
        ASSERT_EQ(map.size(), threads);
        for (const int c : map) {
          EXPECT_GE(c, 0);
          EXPECT_LT(c, static_cast<int>(cores));
        }
      }
    }
  }
}

TEST(AffinityMap, ZeroCoresPinsNothing) {
  const auto map = affinity_map(Affinity::Scatter, 4, 0);
  for (const int core : map) EXPECT_EQ(core, -1);
}

TEST(PinCurrentThread, ToleratesInvalidCore) {
  // Must be a harmless no-op, not a crash. A throwaway thread takes the
  // pin, so pools that later tests start from the main thread do not
  // inherit core 0.
  std::thread([] {
    pin_current_thread(-1);
    pin_current_thread(0);
  }).join();
  SUCCEED();
}

TEST(Affinity, ToStringNames) {
  EXPECT_STREQ(to_string(Affinity::None), "none");
  EXPECT_STREQ(to_string(Affinity::Scatter), "scatter");
  EXPECT_STREQ(to_string(Affinity::Compact), "compact");
  EXPECT_STREQ(to_string(Affinity::Balanced), "balanced");
}

}  // namespace
}  // namespace tbs::cpubase
