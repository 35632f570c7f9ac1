// Resilience primitives (backoff, circuit breaker) and the engine's
// degradation ladder: retry recovery, breaker trips on a dead device,
// degraded baseline fallback, deadlines, shutdown auditing, and the
// worker-survival guarantee under a storm of throwing queries.
#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/datagen.hpp"
#include "common/error.hpp"
#include "core/framework.hpp"
#include "serve/engine.hpp"
#include "serve/resilience.hpp"

namespace tbs::serve {
namespace {

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

// --- primitives ----------------------------------------------------------

TEST(Backoff, GrowsExponentiallyAndCapsWithoutJitter) {
  RetryPolicy p;
  p.base_backoff_seconds = 0.001;
  p.max_backoff_seconds = 0.004;
  p.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_seconds(p, 1, rng), 0.0);  // first attempt: none
  EXPECT_DOUBLE_EQ(backoff_seconds(p, 2, rng), 0.001);
  EXPECT_DOUBLE_EQ(backoff_seconds(p, 3, rng), 0.002);
  EXPECT_DOUBLE_EQ(backoff_seconds(p, 4, rng), 0.004);
  EXPECT_DOUBLE_EQ(backoff_seconds(p, 5, rng), 0.004);  // capped
}

TEST(Backoff, JitterStaysWithinTheConfiguredFraction) {
  RetryPolicy p;
  p.base_backoff_seconds = 0.01;
  p.max_backoff_seconds = 0.01;
  p.jitter = 0.5;
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const double b = backoff_seconds(p, 2, rng);
    EXPECT_GT(b, 0.005 - 1e-12);
    EXPECT_LE(b, 0.01);
  }
}

TEST(CircuitBreaker, OpensAfterThresholdCoolsDownAndCloses) {
  BreakerPolicy p;
  p.failure_threshold = 2;
  p.cooldown_seconds = 0.02;
  p.half_open_probes = 1;
  CircuitBreaker b(p);

  EXPECT_TRUE(b.allow());
  EXPECT_FALSE(b.record_failure());  // streak 1: still closed
  EXPECT_TRUE(b.record_failure());   // streak 2: the opening transition
  EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(b.allow());  // cooling down
  EXPECT_EQ(b.opened_count(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(b.allow());  // cooldown elapsed: half-open probe admitted
  EXPECT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(b.allow());  // probe budget spent

  b.record_success();
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  EXPECT_EQ(b.failure_streak(), 0);
  EXPECT_TRUE(b.allow());
}

TEST(CircuitBreaker, FailedHalfOpenProbeReopens) {
  BreakerPolicy p;
  p.failure_threshold = 1;
  p.cooldown_seconds = 0.01;
  CircuitBreaker b(p);

  EXPECT_TRUE(b.record_failure());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(b.allow());           // the probe
  EXPECT_TRUE(b.record_failure());  // probe failed: re-open transition
  EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(b.opened_count(), 2u);
}

TEST(CircuitBreaker, ZeroThresholdDisablesTheBreaker) {
  BreakerPolicy p;
  p.failure_threshold = 0;
  CircuitBreaker b(p);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(b.record_failure());
    EXPECT_TRUE(b.allow());
  }
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
}

// --- the engine's ladder -------------------------------------------------

TEST(EngineResilience, RetryRecoversFromTransientFaultsBitIdentically) {
  const auto pts = test_points();

  core::TwoBodyFramework fw;
  const std::uint64_t want = fw.pcf(pts, 2.0).pairs_within;

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.retry.max_attempts = 3;
  cfg.faults.resize(1);
  cfg.faults[0].fail_first_n = 2;  // two attempts fail, the third lands
  QueryEngine engine(cfg);

  const PcfResult r = std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  EXPECT_EQ(r.pairs_within, want);  // retries reproduce the fault-free run
  EXPECT_FALSE(r.degraded);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.completed, 1u);
  EXPECT_EQ(stats.counters.failed, 0u);
  EXPECT_EQ(stats.counters.faults, 2u);
  EXPECT_EQ(stats.counters.retries, 2u);
  EXPECT_EQ(stats.counters.degraded, 0u);
}

TEST(EngineResilience, BreakerOpensOnAPermanentlyDeadDevice) {
  // The injected-fault negative test: a device that always fails MUST trip
  // its worker's breaker, and that must be visible in every surface —
  // breaker state, counters, metrics JSON, and the flight recorder.
  const auto pts = test_points();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.retry.max_attempts = 1;
  cfg.retry.max_dispatches = 1;  // no hand-offs: there is only one worker
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_seconds = 0.02;
  cfg.faults.resize(1);
  cfg.faults[0].device_lost = true;
  QueryEngine engine(cfg);

  std::vector<QueryEngine::ResultFuture> futs;
  for (int i = 0; i < 3; ++i)
    futs.push_back(engine.pcf(pts, 1.0 + 0.1 * i));
  for (auto& f : futs) EXPECT_THROW(f.get(), ServeError);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.failed, 3u);
  EXPECT_EQ(stats.counters.completed, 0u);
  EXPECT_GE(stats.counters.faults, 3u);
  EXPECT_GE(stats.counters.breaker_opens, 1u);
  EXPECT_GE(engine.breaker(0).opened_count(), 1u);
  EXPECT_NE(engine.breaker(0).state(), CircuitBreaker::State::Closed);
  EXPECT_NE(engine.metrics_json().find("serve.breaker_opens"),
            std::string::npos);

  bool saw_breaker_event = false;
  for (const auto& rec : engine.flight_recorder().snapshot())
    if (rec.event == FlightRecorder::Event::BreakerOpen)
      saw_breaker_event = true;
  EXPECT_TRUE(saw_breaker_event);
}

TEST(EngineResilience, PlannedQueryDegradesToTheBaselineAndIsNotCached) {
  const auto pts = test_points();
  const double width = bucket_width_for(pts);

  core::TwoBodyFramework fw;
  const SdhResult want = fw.sdh(pts, width, kBuckets);

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.plan_threshold = 100;  // kN = 600 points: the planner is in play
  cfg.retry.max_attempts = 2;
  cfg.faults.resize(1);
  // Both planned attempts die in calibration; the schedule is then spent,
  // so the degraded baseline (planner bypassed) succeeds.
  cfg.faults[0].fail_first_n = 2;
  QueryEngine engine(cfg);

  const SdhResult r = std::get<SdhResult>(engine.sdh(pts, width, kBuckets).get());
  EXPECT_TRUE(r.degraded);  // tagged: a second-choice but correct answer
  ASSERT_EQ(r.hist.bucket_count(), want.hist.bucket_count());
  for (std::size_t i = 0; i < want.hist.bucket_count(); ++i)
    EXPECT_EQ(r.hist[i], want.hist[i]) << "bucket " << i;

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.completed, 1u);
  EXPECT_EQ(stats.counters.failed, 0u);
  EXPECT_EQ(stats.counters.degraded, 1u);
  EXPECT_EQ(stats.counters.faults, 2u);

  // Degraded answers are not cached: the same query on the now-healthy
  // device re-executes and comes back first-class.
  const SdhResult r2 =
      std::get<SdhResult>(engine.sdh(pts, width, kBuckets).get());
  EXPECT_FALSE(r2.degraded);
  stats = engine.stats();
  EXPECT_EQ(stats.counters.cache_hits, 0u);
  EXPECT_EQ(stats.counters.executed, 2u);
  EXPECT_EQ(stats.counters.degraded, 1u);

  bool saw_degraded_event = false;
  for (const auto& rec : engine.flight_recorder().snapshot())
    if (rec.event == FlightRecorder::Event::Degraded)
      saw_degraded_event = true;
  EXPECT_TRUE(saw_degraded_event);
}

TEST(EngineResilience, ExpiredDeadlineCancelsBeforeExecution) {
  const auto pts = test_points();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.autostart = false;  // hold the job in the queue past its deadline
  QueryEngine engine(cfg);

  SubmitOptions opts;
  opts.deadline_seconds = 0.01;
  auto fut = engine.submit(PcfQuery{2.0}, pts, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.start();
  EXPECT_THROW(fut.get(), DeadlineExceeded);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.expired, 1u);
  EXPECT_EQ(stats.counters.executed, 0u);  // cancelled, never run
  EXPECT_EQ(stats.counters.failed, 0u);

  bool saw_expire_event = false;
  for (const auto& rec : engine.flight_recorder().snapshot())
    if (rec.event == FlightRecorder::Event::Expire) saw_expire_event = true;
  EXPECT_TRUE(saw_expire_event);

  // The worker is free for real work afterwards.
  const PcfResult ok = std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  EXPECT_GT(ok.pairs_within, 0u);
}

TEST(EngineResilience, ShutdownAbandonsQueuedWorkWithAnAuditTrail) {
  const auto pts = test_points();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.queue_capacity = 4;
  cfg.autostart = false;  // never started: queued jobs have no worker
  QueryEngine engine(cfg);

  auto f1 = engine.try_submit(PcfQuery{1.0}, pts);
  auto f2 = engine.try_submit(PcfQuery{2.0}, pts);
  ASSERT_TRUE(f1 && f2);

  engine.shutdown();
  EXPECT_THROW(f1->get(), ServeError);
  EXPECT_THROW(f2->get(), ServeError);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.abandoned, 2u);
  std::size_t abandon_events = 0;
  for (const auto& rec : engine.flight_recorder().snapshot())
    if (rec.event == FlightRecorder::Event::Abandon) ++abandon_events;
  EXPECT_EQ(abandon_events, 2u);
}

TEST(EngineResilience, WorkerSurvivesAHundredConsecutiveThrowingQueries) {
  // The rejection guarantee: a degenerate query is refused synchronously at
  // submit — it never reaches a worker, never trips the breaker — and the
  // pool must survive 100 in a row and still serve real work.
  const auto pts = test_points();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  QueryEngine engine(cfg);

  for (int i = 0; i < 100; ++i) {
    EXPECT_THROW((void)engine.knn(pts, /*k=*/0), InvalidQueryError)
        << "query " << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.rejected_invalid, 100u);
  EXPECT_EQ(stats.counters.failed, 0u);  // rejected, not failed
  EXPECT_EQ(stats.counters.faults, 0u);  // app errors are not device faults
  EXPECT_EQ(engine.launch_count(), 0u);  // never reached a device
  EXPECT_EQ(engine.breaker(0).state(), CircuitBreaker::State::Closed);

  const KnnResult ok = std::get<KnnResult>(engine.knn(pts, 4).get());
  EXPECT_EQ(ok.neighbours.size(), pts.size());
  EXPECT_EQ(engine.stats().counters.completed, 1u);
}

TEST(EngineResilience, ConfigDefaultDeadlineAppliesAndNegativeOptsOverride) {
  const auto pts = test_points();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.autostart = false;
  cfg.default_deadline_seconds = 0.01;
  QueryEngine engine(cfg);

  auto doomed = engine.submit(PcfQuery{2.0}, pts);  // inherits the default
  SubmitOptions no_deadline;
  no_deadline.deadline_seconds = -1.0;  // explicit opt-out of the default
  auto safe = engine.submit(PcfQuery{3.0}, pts, no_deadline);

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.start();
  EXPECT_THROW(doomed.get(), DeadlineExceeded);
  EXPECT_NO_THROW(safe.get());
}

TEST(CircuitBreaker, TripForcesOpenImmediatelyAndCountsOneTransition) {
  CircuitBreaker breaker(BreakerPolicy{.failure_threshold = 5,
                                       .cooldown_seconds = 10.0,
                                       .half_open_probes = 1});
  EXPECT_TRUE(breaker.allow());
  // No failure streak needed: corruption evidence outranks the policy.
  EXPECT_TRUE(breaker.trip());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.opened_count(), 1u);
  // A second trip while already open is not a new transition — it only
  // restarts the cooldown.
  EXPECT_FALSE(breaker.trip());
  EXPECT_EQ(breaker.opened_count(), 1u);
}

TEST(CircuitBreaker, TripWorksEvenWhenTheBreakerIsDisabled) {
  CircuitBreaker breaker(BreakerPolicy{.failure_threshold = 0,
                                       .cooldown_seconds = 10.0,
                                       .half_open_probes = 1});
  EXPECT_FALSE(breaker.record_failure());  // disabled: failures don't open
  EXPECT_TRUE(breaker.trip());             // quarantine does
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
}

TEST(CircuitBreaker, HalfOpenReTripRaceAdmitsBoundedProbesAndOneTransition) {
  // The half-open re-trip race: many workers probe a cooled breaker at
  // once. The contract — at most `half_open_probes` probes are admitted,
  // and when they all fail, exactly one failure records the re-open
  // transition (the counters a dashboard sums must not double-count).
  //
  // The threads are started first and released together from a latch, and
  // the cooldown is long next to that release: a failed probe re-opens the
  // breaker, and a straggler reaching allow() a whole cooldown later would
  // legitimately be granted a second half-open probe.
  CircuitBreaker breaker(BreakerPolicy{.failure_threshold = 1,
                                       .cooldown_seconds = 0.2,
                                       .half_open_probes = 2});
  ASSERT_TRUE(breaker.trip());

  constexpr int kThreads = 8;
  std::atomic<int> admitted{0};
  std::atomic<int> transitions{0};
  std::latch go(1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      go.wait();
      if (breaker.allow()) {
        admitted.fetch_add(1);
        if (breaker.record_failure()) transitions.fetch_add(1);
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));  // cool down
  go.count_down();
  for (std::thread& t : threads) t.join();

  EXPECT_GE(admitted.load(), 1);
  EXPECT_LE(admitted.load(), 2);  // the probe budget bounds concurrency
  EXPECT_EQ(transitions.load(), 1);  // exactly one re-open transition
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.opened_count(), 2u);  // the trip + the failed probe
}

TEST(EngineResilience, RequeueIntoAClosingQueueStillDeliversATypedError) {
  // A worker whose ladder ends in a requeue can race engine shutdown: the
  // queue is already closed, so the hand-off is refused and the ladder
  // must deliver RetriesExhausted itself — the future may never hang, and
  // the audit counters must account for the query exactly once.
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.degrade = false;  // no baseline rung: the ladder wants to requeue
  cfg.retry.max_attempts = 1;
  cfg.retry.max_dispatches = 50;  // far more hand-offs than shutdown allows
  cfg.breaker.failure_threshold = 0;
  cfg.faults.resize(1);
  cfg.faults[0].device_lost = true;
  QueryEngine engine(cfg);

  const PointsSoA pts = uniform_box(100, 5.0f, 31);
  auto fut = engine.submit(PcfQuery{1.0}, pts);
  engine.shutdown();

  // The future is ready (shutdown joined every worker) and carries a typed
  // serving error — ladder exhaustion or the shutdown abandon, depending
  // on where the race landed.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_THROW(fut.get(), ServeError);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.completed, 0u);
  EXPECT_EQ(stats.counters.failed + stats.counters.abandoned, 1u);
}

}  // namespace
}  // namespace tbs::serve
