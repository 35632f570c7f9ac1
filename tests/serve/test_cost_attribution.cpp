// Per-query cost attribution through QueryEngine: the SubmitOptions::cost
// sink, phase accounting on the happy path, cache-hit/coalesced markers,
// waste itemization under injected faults, the sharded-chaos tile-balance
// acceptance check, and the planner estimate-feedback loop (corrected
// error measurably below uncorrected after a run of queries against a
// deliberately mispriced backend).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/datagen.hpp"
#include "core/feedback.hpp"
#include "obs/cost.hpp"
#include "serve/engine.hpp"
#include "vgpu/fault.hpp"

namespace tbs::serve {
namespace {

using kernels::SdhResult;

constexpr int kBuckets = 24;

PointsSoA points_of(std::size_t n, std::uint64_t seed) {
  return uniform_box(n, 10.0f, seed);
}

double width_for(const PointsSoA& pts) {
  return pts.max_possible_distance() / kBuckets + 1e-4;
}

QueryEngine::Config small_pool() {
  QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 1;
  cfg.cpu_workers = 1;
  cfg.cpu_threads = 2;
  return cfg;
}

TEST(CostAttribution, PlannedQueryFillsPhasesAndFeedbackTriple) {
  // N above the plan threshold so the planner (and the estimate feedback
  // triple) participates.
  const PointsSoA pts = points_of(4096, 31);
  QueryEngine engine(small_pool());

  SubmitOptions opts;
  opts.cost = std::make_shared<obs::QueryCost>();
  (void)std::get<SdhResult>(
      engine.sdh(pts, width_for(pts), kBuckets, opts).get());

  const obs::QueryCost& qc = *opts.cost;
  EXPECT_NE(qc.trace_id, 0u);
  EXPECT_EQ(qc.kind, "sdh");
  EXPECT_NE(qc.dataset_fp, 0u);
  EXPECT_FALSE(qc.backend.empty());
  EXPECT_FALSE(qc.variant.empty());
  EXPECT_FALSE(qc.cache_hit);
  EXPECT_FALSE(qc.failed);
  EXPECT_GT(qc.total_seconds, 0.0);
  EXPECT_GT(qc.phase(obs::CostPhase::Plan).seconds, 0.0);
  EXPECT_GT(qc.phase(obs::CostPhase::Launch).seconds, 0.0);
  EXPECT_GT(qc.phase(obs::CostPhase::CacheFill).seconds, 0.0);
  EXPECT_GE(qc.phase(obs::CostPhase::Queue).seconds, 0.0);
  EXPECT_EQ(qc.waste_events, 0u);
  // The feedback triple: the planner's estimate (raw + corrected) and the
  // measured seconds on the estimate's clock.
  EXPECT_GT(qc.raw_estimate_seconds, 0.0);
  EXPECT_GT(qc.estimate_seconds, 0.0);
  EXPECT_GT(qc.measured_seconds, 0.0);
  EXPECT_GE(engine.estimate_corrector().observations(), 1u);

  // The ledger saw the same query.
  const obs::CostLedger::Aggregate total = engine.cost_ledger().total();
  EXPECT_EQ(total.queries, 1u);
  EXPECT_EQ(total.failures, 0u);
  const auto by_variant = engine.cost_ledger().by_variant();
  ASSERT_EQ(by_variant.count(qc.variant), 1u);
  EXPECT_EQ(by_variant.at(qc.variant).queries, 1u);
}

TEST(CostAttribution, CacheHitAndCoalescedAreMarkedNotDoubleCounted) {
  const PointsSoA pts = points_of(600, 32);
  const double width = width_for(pts);

  {  // cache hit
    QueryEngine engine(small_pool());
    (void)engine.sdh(pts, width, kBuckets).get();
    SubmitOptions opts;
    opts.cost = std::make_shared<obs::QueryCost>();
    (void)engine.sdh(pts, width, kBuckets, opts).get();
    EXPECT_TRUE(opts.cost->cache_hit);
    EXPECT_GT(opts.cost->total_seconds, 0.0);
    EXPECT_TRUE(opts.cost->backend.empty());  // no work ran
    const obs::CostLedger::Aggregate total = engine.cost_ledger().total();
    EXPECT_EQ(total.queries, 2u);
    EXPECT_EQ(total.cache_hits, 1u);
  }
  {  // coalesced: only the marker, no ledger entry of its own
    QueryEngine::Config cfg = small_pool();
    cfg.autostart = false;
    QueryEngine engine(cfg);
    auto f1 = engine.sdh(pts, width, kBuckets);
    SubmitOptions opts;
    opts.cost = std::make_shared<obs::QueryCost>();
    auto f2 = engine.sdh(pts, width, kBuckets, opts);
    EXPECT_TRUE(opts.cost->coalesced);
    engine.start();
    (void)f1.get();
    (void)f2.get();
    EXPECT_EQ(engine.cost_ledger().total().queries, 1u);
  }
}

TEST(CostAttribution, TransientFaultsLandInWasteNotInPhases) {
  const PointsSoA pts = points_of(600, 33);
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.faults.resize(1);
  cfg.faults[0].fail_first_n = 2;  // two failed attempts, then healthy
  QueryEngine engine(cfg);

  SubmitOptions opts;
  opts.cost = std::make_shared<obs::QueryCost>();
  (void)std::get<SdhResult>(
      engine.sdh(pts, width_for(pts), kBuckets, opts).get());

  const obs::QueryCost& qc = *opts.cost;
  EXPECT_FALSE(qc.failed);
  EXPECT_GE(qc.retries, 2u);
  EXPECT_GE(qc.waste_events, 2u);
  EXPECT_GT(qc.waste_seconds, 0.0);
  // The successful attempt's launch phase is intact alongside the waste.
  EXPECT_GT(qc.phase(obs::CostPhase::Launch).seconds, 0.0);
  EXPECT_GT(engine.cost_ledger().total().waste_seconds, 0.0);
}

// A dead device faults once, non-transiently: nothing is retried, so the
// ledger's retries stay 0 (agreeing with serve.retries) although the
// attempt faulted and the failover rung answered.
TEST(CostAttribution, DeadDeviceFaultIsNotARetry) {
  const PointsSoA pts = points_of(600, 35);
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.backend_failover = true;
  cfg.faults.resize(1);
  cfg.faults[0].device_lost = true;
  QueryEngine engine(cfg);

  SubmitOptions opts;
  opts.cost = std::make_shared<obs::QueryCost>();
  (void)std::get<SdhResult>(
      engine.sdh(pts, width_for(pts), kBuckets, opts).get());

  const obs::QueryCost& qc = *opts.cost;
  EXPECT_FALSE(qc.failed);
  EXPECT_TRUE(qc.failover);
  EXPECT_EQ(qc.retries, 0u);
  EXPECT_GE(qc.waste_events, 1u);  // the faulted attempt is still waste
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.retries, 0u);
  EXPECT_GE(stats.counters.faults, 1u);
}

// An audit's reference run is charged to its own phase, not dropped and
// not folded into the query's launch.
TEST(CostAttribution, AuditTimeLandsInItsOwnPhase) {
  const PointsSoA pts = points_of(600, 36);
  QueryEngine::Config cfg = small_pool();
  cfg.audit_rate = 1.0;
  QueryEngine engine(cfg);

  SubmitOptions opts;
  opts.cost = std::make_shared<obs::QueryCost>();
  (void)engine.pcf(pts, 1.5, opts).get();

  const obs::QueryCost& qc = *opts.cost;
  EXPECT_EQ(engine.stats().counters.audits, 1u);
  EXPECT_GT(qc.phase(obs::CostPhase::Audit).seconds, 0.0);
  EXPECT_GT(qc.phase(obs::CostPhase::Launch).seconds, 0.0);
  EXPECT_GT(engine.metrics().gauge("serve.cost.phase.audit_seconds").value(),
            0.0);
}

TEST(CostAttribution, ShardedChaosTilesBalanceAndWasteIsItemized) {
  // The acceptance check: a sharded run (--shards 4) that loses one lane
  // mid-query must produce a ledger whose per-tile attributions sum to the
  // query's launch-phase total within 1%, with the lost lane's burned time
  // itemized as waste — not smeared into the productive phases.
  const PointsSoA pts = points_of(500, 34);
  QueryEngine::Config cfg = small_pool();
  cfg.faults.resize(2);
  cfg.faults[1].device_lost = true;  // lane gpu1 dies on its first launch
  QueryEngine engine(cfg);

  SubmitOptions opts;
  opts.shards = 4;
  opts.cost = std::make_shared<obs::QueryCost>();
  (void)std::get<SdhResult>(
      engine.sdh(pts, width_for(pts), kBuckets, opts).get());

  const obs::QueryCost& qc = *opts.cost;
  EXPECT_TRUE(qc.sharded);
  EXPECT_FALSE(qc.failed);
  EXPECT_GE(qc.lanes_lost, 1u);
  EXPECT_GE(qc.tiles_failed_over, 1u);
  ASSERT_FALSE(qc.tiles.empty());

  bool saw_failover_tile = false;
  double tile_sum = 0.0;
  for (const obs::TileCost& t : qc.tiles) {
    EXPECT_GE(t.seconds, 0.0);
    EXPECT_FALSE(t.backend.empty());
    tile_sum += t.seconds;
    saw_failover_tile = saw_failover_tile || t.failover;
  }
  EXPECT_TRUE(saw_failover_tile);

  const double launch = qc.phase(obs::CostPhase::Launch).seconds;
  ASSERT_GT(launch, 0.0);
  EXPECT_LE(std::abs(tile_sum - launch), 0.01 * launch)
      << "tile sum " << tile_sum << " vs launch phase " << launch;

  // The dying lane's attempt is waste, itemized separately.
  EXPECT_GT(qc.waste_seconds, 0.0);
  EXPECT_GE(qc.waste_events, 1u);
  EXPECT_GT(qc.phase(obs::CostPhase::Merge).seconds, 0.0);
  EXPECT_GT(qc.phase(obs::CostPhase::Stage).bytes, 0.0);
}

TEST(CostAttribution, FeedbackCorrectionBeatsRawEstimatesOnABiasedBackend) {
  // The feedback acceptance check: pin the CPU backend's per-pair cost to
  // an absurdly wrong value (a systematic model bias), run 20+ queries of
  // one shape over distinct datasets (distinct fingerprints defeat the
  // result cache; one shape keeps the corrector key hot), and the
  // EWMA-corrected estimate error must land measurably below the raw
  // model's.
  QueryEngine::Config cfg;
  cfg.devices = 0;
  cfg.cpu_workers = 1;
  cfg.cpu_threads = 2;
  cfg.cpu_pair_cost_seconds = 1e-5;  // ~1000x too expensive on any host
  QueryEngine engine(cfg);

  for (std::uint64_t seed = 0; seed < 22; ++seed) {
    const PointsSoA pts = points_of(4096, 100 + seed);
    (void)std::get<SdhResult>(
        engine.sdh(pts, width_for(pts), kBuckets).get());
  }

  const core::EstimateCorrector& c = engine.estimate_corrector();
  const core::EstimateCorrector::Stats s = c.overall();
  ASSERT_GE(s.samples, 20u);
  EXPECT_GT(s.mae_uncorrected, 1.0);  // the raw model is way off
  // Cumulative MAE carries the warm-up samples (factor pinned at 1.0
  // until min_samples), so it only halves; the EWMA error — what the
  // drift gate judges — must collapse to the clamp floor, an order of
  // magnitude under the raw model's error.
  EXPECT_LT(s.mae_corrected, 0.5 * s.mae_uncorrected)
      << "corrected " << s.mae_corrected << " vs raw " << s.mae_uncorrected;
  EXPECT_LT(s.recent_err_corrected, 0.1 * s.mae_uncorrected)
      << "recent " << s.recent_err_corrected << " vs raw "
      << s.mae_uncorrected;
  // And the surfaced gauges agree.
  const std::string json = engine.metrics_json();
  EXPECT_NE(json.find("planner.estimate.mae_corrected"), std::string::npos);
  EXPECT_NE(json.find("serve.cost.queries"), std::string::npos);
}

}  // namespace
}  // namespace tbs::serve
