// obs::check_drift — the model-vs-measured validation loop. The StatsPoly
// fit is exact for stationary distributions, so on the simulator the sweep
// must come back clean; enforce() is the loud-failure path CI gates on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "backend/vgpu_backend.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "vgpu/device.hpp"

namespace obs = tbs::obs;
namespace json = tbs::obs::json;
using tbs::CheckError;

namespace {

obs::DriftOptions small_opts() {
  obs::DriftOptions opt;
  opt.calib_ns = {256, 512, 1024};
  opt.verify_n = 2048;
  opt.block_size = 128;
  opt.buckets = 32;
  return opt;
}

}  // namespace

TEST(Drift, PlannableSweepStaysWithinTolerance) {
  tbs::vgpu::Device dev;
  tbs::backend::VgpuBackend be(dev);
  const obs::DriftReport report = obs::check_drift(be, small_opts());
  ASSERT_FALSE(report.rows.empty());
  EXPECT_DOUBLE_EQ(report.verify_n, 2048.0);
  EXPECT_TRUE(report.within_tolerance())
      << "worst: " << report.worst()->variant << "/"
      << report.worst()->counter << " rel_error "
      << report.worst()->rel_error;
  EXPECT_NO_THROW(report.enforce());
  // Both serving problem types are covered.
  std::set<std::string> variants;
  for (const obs::DriftRow& r : report.rows) variants.insert(r.variant);
  EXPECT_TRUE(variants.count("Reg-ROC-Out"));
  EXPECT_TRUE(variants.count("Register-SHM"));
}

TEST(Drift, EnforceThrowsNamingTheWorstRow) {
  obs::DriftReport report;
  report.tolerance = 0.05;
  report.rows.push_back({"Reg-ROC-Out", "global_loads", 100.0, 100.0, 0.0});
  report.rows.push_back({"Naive", "shared_atomics", 150.0, 100.0, 0.5});
  EXPECT_FALSE(report.within_tolerance());
  EXPECT_DOUBLE_EQ(report.max_rel_error(), 0.5);
  ASSERT_NE(report.worst(), nullptr);
  EXPECT_EQ(report.worst()->counter, "shared_atomics");
  try {
    report.enforce();
    FAIL() << "enforce() must throw past tolerance";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Naive"), std::string::npos);
    EXPECT_NE(what.find("shared_atomics"), std::string::npos);
  }
}

TEST(Drift, EmptyReportIsVacuouslyClean) {
  const obs::DriftReport report;
  EXPECT_TRUE(report.within_tolerance());
  EXPECT_DOUBLE_EQ(report.max_rel_error(), 0.0);
  EXPECT_EQ(report.worst(), nullptr);
  EXPECT_NO_THROW(report.enforce());
}

TEST(Drift, ReportJsonParsesWithEveryRow) {
  obs::DriftReport report;
  report.verify_n = 2048;
  report.rows.push_back({"Reg-ROC-Out", "global_loads", 100.0, 101.0, 0.01});
  const json::Value doc = json::parse(report.to_json());
  EXPECT_DOUBLE_EQ(doc.at("tolerance").number, obs::kDriftTolerance);
  EXPECT_DOUBLE_EQ(doc.at("verify_n").number, 2048.0);
  EXPECT_DOUBLE_EQ(doc.at("max_rel_error").number, 0.01);
  EXPECT_TRUE(doc.at("within_tolerance").boolean);
  const json::Value& rows = doc.at("rows");
  ASSERT_TRUE(rows.is_array());
  ASSERT_EQ(rows.array.size(), 1u);
  EXPECT_EQ(rows.array[0].at("variant").string, "Reg-ROC-Out");
  EXPECT_EQ(rows.array[0].at("counter").string, "global_loads");
  EXPECT_DOUBLE_EQ(rows.array[0].at("measured").number, 101.0);
}

TEST(Drift, DriftCountersCoverTheComparedFields) {
  tbs::vgpu::KernelStats s;
  s.global_loads = 1;
  s.shared_atomics = 2;
  s.total_warp_cycles = 3.0;
  const auto counters = obs::drift_counters(s);
  ASSERT_EQ(counters.size(), 9u);
  std::set<std::string> names;
  for (const auto& [name, value] : counters) names.insert(name);
  for (const char* expected :
       {"global_loads", "global_stores", "global_atomics", "roc_loads",
        "shared_loads", "shared_stores", "shared_atomics", "shuffles",
        "total_warp_cycles"})
    EXPECT_TRUE(names.count(expected)) << expected;
}
