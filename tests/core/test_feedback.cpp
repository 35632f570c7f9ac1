// core::EstimateCorrector — the planner's measured-vs-estimate feedback
// loop: N bucketing, warm-up gating, EWMA convergence under a constant
// model bias, factor clamping, accuracy accounting (corrected error must
// beat uncorrected once warmed), and the drift-style enforce() gate.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "core/feedback.hpp"
#include "obs/json.hpp"

namespace tbs::core {
namespace {

namespace json = tbs::obs::json;
using tbs::CheckError;

TEST(EstimateNBucket, RoundsUpToPowersOfTwo) {
  EXPECT_EQ(estimate_n_bucket(0.0), 1u);
  EXPECT_EQ(estimate_n_bucket(1.0), 1u);
  EXPECT_EQ(estimate_n_bucket(2.0), 2u);
  EXPECT_EQ(estimate_n_bucket(3.0), 4u);
  EXPECT_EQ(estimate_n_bucket(4096.0), 4096u);
  EXPECT_EQ(estimate_n_bucket(4097.0), 8192u);
}

TEST(EstimateCorrector, FactorStaysUnityUntilWarmedUp) {
  EstimateCorrector c;  // kMinSamples = 3
  EXPECT_DOUBLE_EQ(c.factor("vgpu", "Reg-ROC-Out/B256", 4096.0), 1.0);
  c.observe("vgpu", "Reg-ROC-Out/B256", 4096.0, 1.0, 2.0);
  c.observe("vgpu", "Reg-ROC-Out/B256", 4096.0, 1.0, 2.0);
  // Two samples: still priming.
  EXPECT_DOUBLE_EQ(c.factor("vgpu", "Reg-ROC-Out/B256", 4096.0), 1.0);
  c.observe("vgpu", "Reg-ROC-Out/B256", 4096.0, 1.0, 2.0);
  // Warmed: the model under-estimates 2x, so the factor moves toward 2.
  EXPECT_GT(c.factor("vgpu", "Reg-ROC-Out/B256", 4096.0), 1.5);
  // A different N bucket is a different key — untouched.
  EXPECT_DOUBLE_EQ(c.factor("vgpu", "Reg-ROC-Out/B256", 100000.0), 1.0);
  EXPECT_EQ(c.keys(), 1u);
  EXPECT_EQ(c.observations(), 3u);
}

TEST(EstimateCorrector, ConvergesToAConstantBias) {
  EstimateCorrector c;
  for (int i = 0; i < 40; ++i)
    c.observe("cpu", "Tree-SDH/B256", 8192.0, 0.004, 0.010);  // 2.5x bias
  EXPECT_NEAR(c.factor("cpu", "Tree-SDH/B256", 8192.0), 2.5, 0.05);
  const EstimateCorrector::Stats s = c.stats("cpu", "Tree-SDH/B256", 8192.0);
  EXPECT_EQ(s.samples, 40u);
  // Raw estimates are 60% off forever; the corrected ones converge.
  EXPECT_NEAR(s.mae_uncorrected, 0.6, 1e-9);
  EXPECT_LT(s.mae_corrected, s.mae_uncorrected);
  EXPECT_LT(s.recent_err_corrected, 0.05);
}

TEST(EstimateCorrector, FactorIsClampedAgainstAbsurdMeasurements) {
  EstimateCorrector c;
  for (int i = 0; i < 10; ++i)
    c.observe("vgpu", "v/B256", 1024.0, 1.0, 1e6);  // stalled launches
  EXPECT_DOUBLE_EQ(c.factor("vgpu", "v/B256", 1024.0), 20.0);  // max_factor
  for (int i = 0; i < 200; ++i)
    c.observe("vgpu", "w/B256", 1024.0, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(c.factor("vgpu", "w/B256", 1024.0), 0.05);  // min_factor
}

TEST(EstimateCorrector, IgnoresNonPositiveInputs) {
  EstimateCorrector c;
  c.observe("b", "v", 100.0, 0.0, 1.0);
  c.observe("b", "v", 100.0, 1.0, 0.0);
  c.observe("b", "v", 100.0, -1.0, -2.0);
  EXPECT_EQ(c.observations(), 0u);
  EXPECT_EQ(c.keys(), 0u);
}

TEST(EstimateCorrector, CorrectedErrorBeatsUncorrectedUnderBias) {
  // The acceptance-criterion shape: a systematically wrong model, a run of
  // queries, and the corrected estimate's error measurably below raw.
  EstimateCorrector c;
  for (int i = 0; i < 25; ++i)
    c.observe("cpu", "cpu-pairs/B256", 65536.0, 0.002, 0.020);  // 10x off
  const EstimateCorrector::Stats s =
      c.stats("cpu", "cpu-pairs/B256", 65536.0);
  EXPECT_NEAR(s.mae_uncorrected, 0.9, 1e-9);
  EXPECT_LT(s.mae_corrected, 0.5 * s.mae_uncorrected);
  const EstimateCorrector::Stats all = c.overall();
  EXPECT_EQ(all.samples, 25u);
  EXPECT_LT(all.mae_corrected, all.mae_uncorrected);
}

TEST(EstimateCorrector, EnforcePassesWhenConvergedAndTripsOnBlowout) {
  EstimateCorrector c;
  for (int i = 0; i < 30; ++i)
    c.observe("vgpu", "v/B128", 2048.0, 0.001, 0.003);
  EXPECT_NO_THROW(c.enforce(0.10));  // converged: recent error tiny
  // The world shifts under the correction: measured jumps away from what
  // the learned factor predicts — the gate must fail loudly, naming keys.
  for (int i = 0; i < 5; ++i)
    c.observe("vgpu", "v/B128", 2048.0, 0.001, 0.100);
  try {
    c.enforce(0.10);
    FAIL() << "enforce() accepted a blown-out key";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("vgpu|v/B128"), std::string::npos)
        << e.what();
  }
}

TEST(EstimateCorrector, EnforceIgnoresColdKeys) {
  EstimateCorrector c;
  c.observe("vgpu", "v/B64", 512.0, 0.001, 1.0);  // one wild sample
  EXPECT_NO_THROW(c.enforce(0.01));  // below kMinSamples: not judged
}

TEST(EstimateCorrector, JsonCarriesPerKeyAccuracy) {
  EstimateCorrector c;
  for (int i = 0; i < 4; ++i)
    c.observe("cpu", "cpu-pairs/B256", 1000.0, 1.0, 2.0);
  const json::Value doc = json::parse(c.json());
  EXPECT_EQ(doc.at("keys").number, 1.0);
  EXPECT_EQ(doc.at("observations").number, 4.0);
  const json::Value& e = doc.at("entries").at("cpu|cpu-pairs/B256|N1024");
  EXPECT_EQ(e.at("samples").number, 4.0);
  EXPECT_GT(e.at("factor").number, 1.0);
  EXPECT_TRUE(e.find("mae_uncorrected") != nullptr);
  EXPECT_TRUE(e.find("mae_corrected") != nullptr);
  EXPECT_TRUE(e.find("recent_err_corrected") != nullptr);
}

}  // namespace
}  // namespace tbs::core
