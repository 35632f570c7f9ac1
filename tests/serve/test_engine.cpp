// QueryEngine end-to-end: admission control, shape coalescing, the result
// cache's zero-new-launches contract, failure propagation, and the headline
// determinism acceptance — 8 concurrent clients get bit-identical
// histograms/counts to the same queries run sequentially through
// TwoBodyFramework.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "common/datagen.hpp"
#include "common/error.hpp"
#include "core/framework.hpp"
#include "serve/engine.hpp"

namespace tbs::serve {
namespace {

using kernels::JoinResult;
using kernels::KnnResult;
using kernels::PcfResult;
using kernels::SdhResult;

constexpr std::size_t kN = 600;
constexpr int kBuckets = 32;

PointsSoA test_points(std::uint64_t seed = 7) {
  return uniform_box(kN, 10.0f, seed);
}

double bucket_width_for(const PointsSoA& pts) {
  return pts.max_possible_distance() / kBuckets + 1e-4;
}

void expect_same_histogram(const SdhResult& a, const SdhResult& b) {
  ASSERT_EQ(a.hist.bucket_count(), b.hist.bucket_count());
  for (std::size_t i = 0; i < a.hist.bucket_count(); ++i)
    EXPECT_EQ(a.hist[i], b.hist[i]) << "bucket " << i;
}

TEST(QueryEngineAdmission, QueueFullRejectsAndCountsTheShedQuery) {
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.queue_capacity = 2;
  cfg.autostart = false;  // no workers: the queue fills deterministically
  QueryEngine engine(cfg);

  const auto pts = test_points();
  ASSERT_TRUE(engine.try_submit(PcfQuery{1.0}, pts).has_value());
  ASSERT_TRUE(engine.try_submit(PcfQuery{2.0}, pts).has_value());
  EXPECT_EQ(engine.try_submit(PcfQuery{3.0}, pts), std::nullopt);  // shed

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.submitted, 3u);
  EXPECT_EQ(stats.counters.rejected, 1u);
  EXPECT_EQ(stats.queue_depth, 2u);
}

TEST(QueryEngineAdmission, CoalescedDuplicatesAreAdmittedPastAFullQueue) {
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.queue_capacity = 1;
  cfg.autostart = false;
  QueryEngine engine(cfg);

  const auto pts = test_points();
  const auto first = engine.try_submit(PcfQuery{1.0}, pts);
  ASSERT_TRUE(first.has_value());
  // The queue is full, but an identical query adds no work: coalesced,
  // not rejected.
  const auto dup = engine.try_submit(PcfQuery{1.0}, pts);
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(engine.stats().counters.coalesced, 1u);
  EXPECT_EQ(engine.stats().counters.rejected, 0u);
}

TEST(QueryEngineAdmission, ShutdownFailsStillQueuedFutures) {
  const auto pts = test_points();
  QueryEngine::ResultFuture orphan;
  {
    QueryEngine::Config cfg;
    cfg.devices = 1;
    cfg.streams_per_device = 1;
    cfg.queue_capacity = 4;
    cfg.autostart = false;
    QueryEngine engine(cfg);
    const auto fut = engine.try_submit(PcfQuery{1.0}, pts);
    ASSERT_TRUE(fut.has_value());
    orphan = *fut;
  }  // destroyed with no worker ever started
  EXPECT_THROW(orphan.get(), ServeError);
}

TEST(QueryEngineCoalescing, IdenticalShapesRunOnceAndMatchIndependentRuns) {
  const auto pts = test_points();
  const double width = bucket_width_for(pts);

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.queue_capacity = 8;
  cfg.autostart = false;  // queue everything first so duplicates MUST
                          // coalesce (nothing can complete in between)
  QueryEngine engine(cfg);

  const auto f1 = engine.try_submit(SdhQuery{width, kBuckets}, pts);
  const auto f2 = engine.try_submit(SdhQuery{width, kBuckets}, pts);
  const auto f3 = engine.try_submit(SdhQuery{width, kBuckets}, pts);
  const auto g1 = engine.try_submit(PcfQuery{2.0}, pts);
  const auto g2 = engine.try_submit(PcfQuery{2.0}, pts);
  ASSERT_TRUE(f1 && f2 && f3 && g1 && g2);
  EXPECT_EQ(engine.stats().counters.coalesced, 3u);
  EXPECT_EQ(engine.stats().queue_depth, 2u);  // one job per distinct shape

  engine.start();
  const auto& sdh_r = std::get<SdhResult>(f1->get());
  const auto& pcf_r = std::get<PcfResult>(g1->get());
  EXPECT_EQ(engine.stats().counters.executed, 2u);

  // Every coalesced client observes the same shared state.
  EXPECT_EQ(&f1->get(), &f2->get());
  EXPECT_EQ(&f1->get(), &f3->get());
  EXPECT_EQ(&g1->get(), &g2->get());

  // And the coalesced execution equals an independent sequential run.
  core::TwoBodyFramework fw;
  expect_same_histogram(sdh_r, fw.sdh(pts, width, kBuckets));
  EXPECT_EQ(pcf_r.pairs_within, fw.pcf(pts, 2.0).pairs_within);
}

TEST(QueryEngineCache, RepeatedShapeServedWithZeroNewKernelLaunches) {
  const auto pts = test_points();
  const double width = bucket_width_for(pts);

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  QueryEngine engine(cfg);

  // Copy out of .get(): the temporary future's shared state dies with the
  // statement.
  const SdhResult first =
      std::get<SdhResult>(engine.sdh(pts, width, kBuckets).get());
  const std::uint64_t launches_after_first = engine.launch_count();
  EXPECT_GT(launches_after_first, 0u);

  // Identical query shape: a result-cache hit — not one new launch.
  const SdhResult second =
      std::get<SdhResult>(engine.sdh(pts, width, kBuckets).get());
  EXPECT_EQ(engine.launch_count(), launches_after_first);
  EXPECT_EQ(engine.stats().counters.cache_hits, 1u);
  EXPECT_EQ(engine.cache().hits(), 1u);
  expect_same_histogram(first, second);

  // A different dataset with the same parameters is a different query.
  const auto other = test_points(/*seed=*/99);
  engine.sdh(other, width, kBuckets).get();
  EXPECT_GT(engine.launch_count(), launches_after_first);
}

TEST(QueryEngineCache, DisabledCacheReExecutes) {
  const auto pts = test_points();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  QueryEngine engine(cfg);

  const PcfResult r1 = std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  const std::uint64_t launches_after_first = engine.launch_count();
  const PcfResult r2 = std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  EXPECT_GT(engine.launch_count(), launches_after_first);  // ran again
  EXPECT_EQ(r1.pairs_within, r2.pairs_within);             // deterministic
  EXPECT_EQ(engine.stats().counters.cache_hits, 0u);
}

TEST(QueryEngineFailure, BadQueryDeliversTheExceptionAndIsNotCached) {
  const auto pts = test_points();
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  QueryEngine engine(cfg);

  // Degenerate parameters are rejected synchronously at submit, before the
  // query acquires a fingerprint or reaches a worker.
  EXPECT_THROW((void)engine.knn(pts, /*k=*/0), InvalidQueryError);
  EXPECT_EQ(engine.stats().counters.rejected_invalid, 1u);
  EXPECT_EQ(engine.stats().counters.failed, 0u);
  EXPECT_EQ(engine.cache().size(), 0u);

  // The engine stays serviceable after a failure.
  const KnnResult ok = std::get<KnnResult>(engine.knn(pts, 4).get());
  EXPECT_EQ(ok.neighbours.size(), pts.size());
}

TEST(QueryEngineDeterminism, EightConcurrentClientsMatchSequentialFramework) {
  const auto pts_a = test_points(7);
  const auto pts_b = test_points(21);
  const double width_a = bucket_width_for(pts_a);

  // Sequential ground truth through the single-query facade.
  core::TwoBodyFramework fw;
  const SdhResult seq_sdh = fw.sdh(pts_a, width_a, kBuckets);
  const PcfResult seq_pcf = fw.pcf(pts_b, 2.0);
  const KnnResult seq_knn = fw.knn(pts_a, 4);
  const JoinResult seq_join = fw.join(pts_b, 1.5);

  QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 2;
  cfg.queue_capacity = 64;
  QueryEngine engine(cfg);

  constexpr int kClients = 8;
  constexpr int kRounds = 3;  // every client repeats its mix
  std::vector<std::thread> clients;
  std::vector<std::vector<QueryEngine::ResultFuture>> futures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = futures[static_cast<std::size_t>(c)];
      for (int r = 0; r < kRounds; ++r) {
        mine.push_back(engine.sdh(pts_a, width_a, kBuckets));
        mine.push_back(engine.pcf(pts_b, 2.0));
        mine.push_back(engine.knn(pts_a, 4));
        mine.push_back(engine.join(pts_b, 1.5));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (auto& mine : futures) {
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(4 * kRounds));
    for (std::size_t i = 0; i < mine.size(); i += 4) {
      const auto& sdh_r = std::get<SdhResult>(mine[i].get());
      expect_same_histogram(sdh_r, seq_sdh);
      EXPECT_EQ(std::get<PcfResult>(mine[i + 1].get()).pairs_within,
                seq_pcf.pairs_within);
      EXPECT_EQ(std::get<KnnResult>(mine[i + 2].get()).neighbours,
                seq_knn.neighbours);
      // TwoPhase join order is deterministic end to end.
      EXPECT_EQ(std::get<JoinResult>(mine[i + 3].get()).pairs,
                seq_join.pairs);
    }
  }

  const EngineStats stats = engine.stats();
  const auto total =
      static_cast<std::uint64_t>(kClients) * kRounds * 4;
  EXPECT_EQ(stats.counters.submitted, total);
  EXPECT_EQ(stats.counters.rejected, 0u);
  // Four distinct shapes exist; dedup (coalescing + cache) must absorb
  // everything beyond one execution per shape... which is exactly 4.
  EXPECT_EQ(stats.counters.executed, 4u);
  EXPECT_EQ(stats.counters.cache_hits + stats.counters.coalesced,
            total - 4u);
  // `completed` counts answers produced (executions + cache hits), not
  // clients served: coalesced clients share their job's one increment.
  EXPECT_EQ(stats.counters.completed,
            stats.counters.executed + stats.counters.cache_hits);
  EXPECT_EQ(stats.counters.failed, 0u);
  EXPECT_EQ(stats.latency.count, stats.counters.completed);
  EXPECT_GT(stats.throughput_qps, 0.0);
}

TEST(QueryEngineBackpressure, BlockingSubmitSurvivesATinyQueue) {
  const auto pts = test_points();
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 2;
  cfg.queue_capacity = 1;  // every submit races the workers for one slot
  cfg.cache_capacity = 0;  // force every query to execute
  QueryEngine engine(cfg);

  std::vector<QueryEngine::ResultFuture> futs;
  futs.reserve(12);
  for (int i = 0; i < 12; ++i)
    futs.push_back(engine.pcf(pts, 0.5 + 0.1 * i));  // all distinct shapes
  for (auto& f : futs) (void)std::get<PcfResult>(f.get());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.completed, 12u);
  EXPECT_EQ(stats.counters.rejected, 0u);
  EXPECT_EQ(stats.counters.executed, 12u);
}

TEST(QueryEnginePlanning, LargeQueriesShareThePlanCacheAcrossWorkers) {
  // Above the plan threshold the engine auto-plans; the shared PlanCache's
  // single-flight gate means N submissions of one shape calibrate once.
  const auto pts = uniform_box(2500, 10.0f, 5);

  QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;  // force both executions to reach the planner
  QueryEngine engine(cfg);

  const PcfResult r1 = std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  EXPECT_EQ(engine.plan_cache().size(), 1u);
  const PcfResult r2 = std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  EXPECT_EQ(r1.pairs_within, r2.pairs_within);
  EXPECT_EQ(engine.plan_cache().size(), 1u);
  EXPECT_GE(engine.plan_cache().hits() + engine.plan_cache().misses(), 2u);
}

TEST(QueryEnginePlanning, AnUnplannedPcfRadiusHitsThePlanOfAnother) {
  // A vgpu PCF price reads no radius, so a radius never seen before, on
  // another dataset in the same size bucket, reuses the plan primed at
  // r = 0.5: no calibration, only the query's own launch.
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  QueryEngine engine(cfg);
  (void)engine.pcf(uniform_box(2500, 10.0f, 5), 0.5).get();
  ASSERT_EQ(engine.plan_cache().misses(), 1u);
  const std::uint64_t primed = engine.launch_count();

  const auto other = uniform_box(3000, 10.0f, 6);
  const PcfResult r = std::get<PcfResult>(engine.pcf(other, 1.3).get());
  EXPECT_EQ(engine.plan_cache().hits(), 1u);
  EXPECT_EQ(engine.plan_cache().misses(), 1u);
  EXPECT_EQ(engine.launch_count() - primed, 1u);
  core::TwoBodyFramework fw;
  EXPECT_EQ(r.pairs_within, fw.pcf(other, 1.3).pairs_within);
}

}  // namespace
}  // namespace tbs::serve
