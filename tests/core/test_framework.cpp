#include "core/framework.hpp"

#include <gtest/gtest.h>

#include "common/datagen.hpp"
#include "cpubase/cpu_stats.hpp"

namespace tbs::core {
namespace {

TEST(Framework, SdhEndToEndMatchesCpu) {
  TwoBodyFramework fw;
  const auto pts = uniform_box(1024, 10.0f, 201);
  const double width = 0.4;
  const auto result = fw.sdh(pts, width, 48);

  cpubase::ThreadPool pool(1);
  const auto expected = cpubase::cpu_sdh(pool, pts, width, 48);
  EXPECT_EQ(result.hist, expected);
}

TEST(Framework, SmallInputSkipsPlanning) {
  TwoBodyFramework fw;
  const auto pts = uniform_box(256, 10.0f, 202);
  (void)fw.sdh(pts, 0.5, 16);
  EXPECT_FALSE(fw.last_plan().has_value());
}

TEST(Framework, LargeInputRecordsPlan) {
  TwoBodyFramework fw;
  const auto pts = uniform_box(4096, 10.0f, 203);
  const auto result = fw.sdh(pts, 0.4, 32);
  ASSERT_TRUE(fw.last_plan().has_value());
  EXPECT_FALSE(fw.last_plan()->considered.empty());
  EXPECT_EQ(result.hist.total(), 4096u * 4095 / 2);
}

TEST(Framework, PcfEndToEndMatchesCpu) {
  TwoBodyFramework fw;
  const auto pts = gaussian_clusters(1024, 4, 12.0f, 0.8f, 204);
  cpubase::ThreadPool pool(1);
  EXPECT_EQ(fw.pcf(pts, 1.5).pairs_within, cpubase::cpu_pcf(pool, pts, 1.5));
}

TEST(Framework, KnnKdeJoinGramAllRun) {
  TwoBodyFramework fw;
  const auto pts = uniform_box(300, 8.0f, 205);

  const auto knn = fw.knn(pts, 2);
  EXPECT_EQ(knn.neighbours.size(), pts.size());

  const auto kde = fw.kde(pts, 1.0);
  EXPECT_EQ(kde.density.size(), pts.size());

  const auto join = fw.join(pts, 1.0);
  cpubase::ThreadPool pool(1);
  EXPECT_EQ(join.pairs.size(),
            cpubase::cpu_distance_join(pool, pts, 1.0).size());

  const auto gram = fw.gram(pts, 0.5);
  EXPECT_EQ(gram.matrix.size(), pts.size() * pts.size());
}

TEST(Framework, DeviceIsExposedForAdvancedUse) {
  TwoBodyFramework fw;
  EXPECT_EQ(fw.device().spec().warp_size, 32);
}

}  // namespace
}  // namespace tbs::core
