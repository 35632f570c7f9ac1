// The serve layer across execution substrates.
//
// Acceptance: a mixed CPU+vgpu worker pool answers an 8-client workload
// bit-identically to a vgpu-only pool (and a CPU-only pool) — which backend
// served a query must be unobservable in the result. Plus the failover
// rung: a vgpu worker whose device is lost serves the query on the shared
// CPU backend, un-degraded, with the hand-off visible in the counters and
// the flight recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/datagen.hpp"
#include "obs/json.hpp"
#include "serve/engine.hpp"
#include "serve/flight_recorder.hpp"
#include "vgpu/fault.hpp"

namespace tbs::serve {
namespace {

using kernels::JoinResult;
using kernels::KnnResult;
using kernels::PcfResult;
using kernels::SdhResult;

constexpr std::size_t kN = 600;
constexpr int kBuckets = 32;

QueryResult get_with_watchdog(QueryEngine::ResultFuture& fut,
                              int timeout_seconds = 120) {
  if (fut.wait_for(std::chrono::seconds(timeout_seconds)) !=
      std::future_status::ready)
    throw std::runtime_error("backend test: query hung past the watchdog");
  return fut.get();
}

/// One workload answer sheet: every query kind once per round.
struct Answers {
  std::vector<SdhResult> sdh;
  std::vector<PcfResult> pcf;
  std::vector<KnnResult> knn;
  std::vector<JoinResult> join;
};

/// 8 clients x 3 rounds of sdh/pcf/knn/join against `cfg`; returns the
/// results in deterministic (client, round) order.
Answers run_workload(QueryEngine::Config cfg, const PointsSoA& pts,
                     double width) {
  cfg.cache_capacity = 0;  // force every query through a worker
  QueryEngine engine(cfg);
  constexpr int kClients = 8;
  constexpr int kRounds = 3;

  std::vector<std::vector<QueryEngine::ResultFuture>> futs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = futs[static_cast<std::size_t>(c)];
      for (int r = 0; r < kRounds; ++r) {
        const double radius = 1.0 + 0.1 * (c * kRounds + r);
        mine.push_back(engine.sdh(pts, width, kBuckets));
        mine.push_back(engine.pcf(pts, radius));
        mine.push_back(engine.knn(pts, 3));
        mine.push_back(engine.join(pts, radius));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  Answers out;
  for (auto& mine : futs) {
    for (std::size_t i = 0; i + 4 <= mine.size(); i += 4) {
      out.sdh.push_back(std::get<SdhResult>(get_with_watchdog(mine[i])));
      out.pcf.push_back(std::get<PcfResult>(get_with_watchdog(mine[i + 1])));
      out.knn.push_back(std::get<KnnResult>(get_with_watchdog(mine[i + 2])));
      out.join.push_back(
          std::get<JoinResult>(get_with_watchdog(mine[i + 3])));
    }
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.failed, 0u);
  EXPECT_EQ(stats.counters.abandoned, 0u);
  return out;
}

void expect_same(const Answers& a, const Answers& b, const char* label) {
  ASSERT_EQ(a.sdh.size(), b.sdh.size()) << label;
  for (std::size_t q = 0; q < a.sdh.size(); ++q) {
    ASSERT_EQ(a.sdh[q].hist.bucket_count(), b.sdh[q].hist.bucket_count());
    for (std::size_t i = 0; i < a.sdh[q].hist.bucket_count(); ++i)
      EXPECT_EQ(a.sdh[q].hist[i], b.sdh[q].hist[i])
          << label << " sdh query " << q << " bucket " << i;
  }
  ASSERT_EQ(a.pcf.size(), b.pcf.size()) << label;
  for (std::size_t q = 0; q < a.pcf.size(); ++q)
    EXPECT_EQ(a.pcf[q].pairs_within, b.pcf[q].pairs_within)
        << label << " pcf query " << q;
  ASSERT_EQ(a.knn.size(), b.knn.size()) << label;
  for (std::size_t q = 0; q < a.knn.size(); ++q)
    EXPECT_EQ(a.knn[q].neighbours, b.knn[q].neighbours)
        << label << " knn query " << q;
  ASSERT_EQ(a.join.size(), b.join.size()) << label;
  for (std::size_t q = 0; q < a.join.size(); ++q) {
    auto lhs = a.join[q].pairs;
    auto rhs = b.join[q].pairs;
    std::sort(lhs.begin(), lhs.end());  // pair order is unspecified
    std::sort(rhs.begin(), rhs.end());
    EXPECT_EQ(lhs, rhs) << label << " join query " << q;
  }
}

TEST(EngineBackends, MixedPoolAnswersMatchEverySingleSubstratePool) {
  const PointsSoA pts = uniform_box(kN, 10.0f, /*seed=*/7);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;

  QueryEngine::Config vgpu_cfg;
  vgpu_cfg.devices = 2;
  vgpu_cfg.streams_per_device = 2;

  QueryEngine::Config mixed_cfg = vgpu_cfg;
  mixed_cfg.cpu_workers = 2;
  mixed_cfg.cpu_threads = 2;

  QueryEngine::Config cpu_cfg;
  cpu_cfg.devices = 0;
  cpu_cfg.cpu_workers = 2;
  cpu_cfg.cpu_threads = 2;

  const Answers vgpu = run_workload(vgpu_cfg, pts, width);
  const Answers mixed = run_workload(mixed_cfg, pts, width);
  const Answers cpu = run_workload(cpu_cfg, pts, width);

  expect_same(vgpu, mixed, "vgpu vs mixed");
  expect_same(vgpu, cpu, "vgpu vs cpu-only");
}

TEST(EngineBackends, CpuWorkersActuallyLaunch) {
  const PointsSoA pts = uniform_box(kN, 10.0f, /*seed=*/11);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;

  QueryEngine::Config cfg;
  cfg.devices = 0;
  cfg.cpu_workers = 2;
  cfg.cpu_threads = 2;
  cfg.cache_capacity = 0;
  QueryEngine engine(cfg);
  EXPECT_EQ(engine.worker_count(), 2u);

  auto f1 = engine.sdh(pts, width, kBuckets);
  auto f2 = engine.pcf(pts, 2.0);
  (void)get_with_watchdog(f1);
  (void)get_with_watchdog(f2);
  EXPECT_GE(engine.launch_count(), 2u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.completed, 2u);
  EXPECT_EQ(stats.counters.failed, 0u);
}

TEST(EngineBackends, EveryQueryTypeCountsItsLaunch) {
  // Every query type reaches the substrate through one IBackend::launch,
  // so each execution counts exactly one launch; a cache hit counts none.
  const PointsSoA pts = uniform_box(300, 10.0f, /*seed=*/17);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;

  QueryEngine::Config cfg;
  cfg.devices = 0;
  cfg.cpu_workers = 1;
  cfg.cpu_threads = 2;
  QueryEngine engine(cfg);

  const std::vector<Query> queries = {SdhQuery{width, kBuckets},
                                      PcfQuery{2.0}, KnnQuery{3},
                                      JoinQuery{1.5}};
  for (const Query& q : queries) {
    const std::uint64_t before = engine.launch_count();
    auto fut = engine.submit(q, pts);
    (void)get_with_watchdog(fut);
    EXPECT_EQ(engine.launch_count(), before + 1) << kind_name(q);

    auto hit = engine.submit(q, pts);
    (void)get_with_watchdog(hit);
    EXPECT_EQ(engine.launch_count(), before + 1)
        << kind_name(q) << " cache hit";
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.cache_hits, queries.size());
  EXPECT_EQ(stats.counters.failed, 0u);
}

TEST(EngineBackends, TinyBucketWidthPutsEveryPairInTheLastBucket) {
  // SdhQuery{1e-12, 64} passes validation, and distance / width is far
  // beyond INT_MAX for every pair: both substrates must clamp the quotient
  // into the last bucket (converting it first crashed the process).
  const PointsSoA pts = uniform_box(1000, 10.0f, /*seed=*/625);
  QueryEngine::Config vgpu_cfg;
  vgpu_cfg.devices = 1;
  vgpu_cfg.streams_per_device = 1;
  QueryEngine::Config cpu_cfg;
  cpu_cfg.devices = 0;
  cpu_cfg.cpu_workers = 1;
  cpu_cfg.cpu_threads = 2;
  for (const QueryEngine::Config& cfg : {vgpu_cfg, cpu_cfg}) {
    QueryEngine engine(cfg);
    auto fut = engine.submit(SdhQuery{1e-12, 64}, pts);
    const Histogram hist = std::get<SdhResult>(get_with_watchdog(fut)).hist;
    ASSERT_EQ(hist.bucket_count(), 64u);
    EXPECT_EQ(hist[63], 1000u * 999u / 2u) << "devices=" << cfg.devices;
    EXPECT_EQ(hist.total(), hist[63]) << "devices=" << cfg.devices;
    EXPECT_EQ(engine.stats().counters.failed, 0u);
  }
}

TEST(EngineBackends, DeviceLostFailsOverToTheCpuBackendUndegraded) {
  const PointsSoA pts = uniform_box(kN, 10.0f, /*seed=*/13);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;

  QueryEngine::Config cfg;
  cfg.devices = 1;  // the only vgpu worker sits on a dead device
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  cfg.backend_failover = true;
  cfg.cpu_threads = 2;
  cfg.retry.max_attempts = 2;
  cfg.breaker.failure_threshold = 0;  // keep the worker pulling work
  cfg.faults.resize(1);
  cfg.faults[0].device_lost = true;
  QueryEngine engine(cfg);

  auto fut = engine.sdh(pts, width, kBuckets);
  const SdhResult r = std::get<SdhResult>(get_with_watchdog(fut));

  // Served by the CPU substrate through the full (planned) path: correct,
  // cacheable, and NOT tagged degraded.
  EXPECT_FALSE(r.degraded);
  QueryEngine::Config healthy;
  healthy.devices = 1;
  healthy.streams_per_device = 1;
  QueryEngine ref_engine(healthy);
  auto ref_fut = ref_engine.sdh(pts, width, kBuckets);
  const SdhResult want = std::get<SdhResult>(get_with_watchdog(ref_fut));
  ASSERT_EQ(r.hist.bucket_count(), want.hist.bucket_count());
  for (std::size_t i = 0; i < r.hist.bucket_count(); ++i)
    EXPECT_EQ(r.hist[i], want.hist[i]) << "bucket " << i;

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.failed, 0u);
  EXPECT_GT(stats.counters.faults, 0u);
  EXPECT_GE(stats.counters.failovers, 1u);
  EXPECT_EQ(stats.counters.degraded, 0u);

  // The hand-off left a Failover event in the flight recorder.
  bool saw_failover = false;
  for (const FlightRecorder::Record& rec :
       engine.flight_recorder().snapshot())
    saw_failover =
        saw_failover || rec.event == FlightRecorder::Event::Failover;
  EXPECT_TRUE(saw_failover);

  // Caching is off, so a repeat of the same query goes through the ladder
  // again — the rung must be repeatable, not a one-shot escape hatch.
  auto fut2 = engine.sdh(pts, width, kBuckets);
  const SdhResult r2 = std::get<SdhResult>(get_with_watchdog(fut2));
  EXPECT_FALSE(r2.degraded);
  EXPECT_GE(engine.stats().counters.failovers, 2u);
}

TEST(EngineBackends, FailoverOffKeepsTheDegradedLadderShape) {
  const PointsSoA pts = uniform_box(kN, 10.0f, /*seed=*/13);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  cfg.retry.max_attempts = 2;
  cfg.breaker.failure_threshold = 0;
  cfg.faults.resize(1);
  cfg.faults[0].device_lost = true;
  QueryEngine engine(cfg);

  // With failover off and the only device dead, SDH cannot be served
  // healthy; the degraded rung would also fault on the same device, so the
  // ladder ends in requeue/failure — the historical single-substrate shape.
  auto fut = engine.sdh(pts, width, kBuckets);
  bool failed = false;
  try {
    (void)get_with_watchdog(fut);
  } catch (const std::exception&) {
    failed = true;
  }
  EXPECT_TRUE(failed);
  EXPECT_EQ(engine.stats().counters.failovers, 0u);
}

/// The engine's `backend.<lane>.<field>` gauge as metrics_json() exports
/// it; throws when the engine exports no such gauge.
double backend_gauge(const QueryEngine& engine, const std::string& lane,
                     const std::string& field) {
  const obs::json::Value doc = obs::json::parse(engine.metrics_json());
  return doc.at("gauges").at("backend." + lane + "." + field).number;
}

TEST(EngineBackends, PerBackendGaugesAddUpToTheEngineTotals) {
  // Each device and each CPU worker exports its own `backend.*` gauges:
  // summed over the pool, the launch gauges are launch_count() and the
  // staging gauges are what the one sharded query staged.
  const PointsSoA pts = uniform_box(kN, 10.0f, /*seed=*/19);
  const PointsSoA sharded_pts = uniform_box(kN, 10.0f, /*seed=*/23);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;

  QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 2;
  cfg.cpu_workers = 1;
  cfg.cpu_threads = 2;
  QueryEngine engine(cfg);

  SubmitOptions sharded;
  sharded.shards = 4;
  sharded.cost = std::make_shared<obs::QueryCost>();
  std::vector<QueryEngine::ResultFuture> futs = {
      engine.sdh(pts, width, kBuckets), engine.pcf(pts, 2.0),
      engine.knn(pts, 3), engine.join(pts, 1.5),
      engine.sdh(sharded_pts, width, kBuckets, sharded)};
  for (QueryEngine::ResultFuture& f : futs) (void)get_with_watchdog(f);

  double launches = 0.0;
  double staged = 0.0;
  for (const std::string lane : {"gpu0", "gpu1", "cpu0"}) {
    launches += backend_gauge(engine, lane, "launches");
    staged += backend_gauge(engine, lane, "staged_bytes");
  }
  EXPECT_EQ(launches, static_cast<double>(engine.launch_count()));
  EXPECT_TRUE(sharded.cost->sharded);
  EXPECT_GT(staged, 0.0);
  EXPECT_EQ(staged, sharded.cost->phase(obs::CostPhase::Stage).bytes);
  EXPECT_THROW((void)engine.fault_stats(2), std::out_of_range);
}

TEST(EngineBackends, PerDeviceFaultGaugesMatchFaultStats) {
  const PointsSoA pts = uniform_box(300, 10.0f, /*seed=*/29);

  QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  cfg.faults.resize(1);
  cfg.faults[0].fail_first_n = 2;
  QueryEngine engine(cfg);

  // Submit until device 0's worker has taken a query and burned its two
  // scheduled faults (the retries absorb them).
  for (int i = 0; i < 64 && engine.fault_stats(0).faults() < 2; ++i) {
    auto fut = engine.pcf(pts, 1.0 + 0.01 * i);
    (void)get_with_watchdog(fut);
  }
  ASSERT_EQ(engine.fault_stats(0).faults(), 2u);
  for (std::size_t d = 0; d < cfg.devices; ++d)
    EXPECT_EQ(backend_gauge(engine, "gpu" + std::to_string(d), "faults"),
              static_cast<double>(engine.fault_stats(d).faults()))
        << "device " << d;
  EXPECT_EQ(engine.stats().counters.failed, 0u);
}

}  // namespace
}  // namespace tbs::serve
