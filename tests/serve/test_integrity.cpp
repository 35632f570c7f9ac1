// End-to-end result integrity: silent corruption (staged-buffer and
// result-payload bit flips) must never reach a client or the result cache.
//
// Three layers under test, matching src/serve/integrity.hpp:
//   * input validation — NaN/Inf datasets and degenerate query parameters
//     are rejected with a typed error *before* fingerprinting, so garbage
//     can never acquire a cache identity;
//   * algebraic invariants (Eq. 1) — a result-payload flip breaks count
//     conservation and is caught on the launch path, entering the ladder
//     as a non-transient fault;
//   * sampled cross-backend audits — a staged-buffer flip conserves counts
//     over wrong points, so only the bit-exact re-execution on the CPU
//     failover backend catches it; the mismatch quarantines the worker.
//
// A negative test proves the defense is doing the work: with integrity
// checks disabled, the same chaos plan delivers a wrong answer.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/datagen.hpp"
#include "core/framework.hpp"
#include "cpubase/cpu_stats.hpp"
#include "serve/engine.hpp"
#include "serve/integrity.hpp"
#include "vgpu/fault.hpp"

namespace tbs::serve {
namespace {

using kernels::PcfResult;
using kernels::SdhResult;

constexpr std::size_t kN = 500;
constexpr int kBuckets = 24;
constexpr double kWidth = 1.0;

PointsSoA test_points(std::uint64_t seed = 11) {
  return uniform_box(kN, 10.0f, seed);
}

void expect_hist_equal(const Histogram& got, const Histogram& want,
                       const char* label) {
  ASSERT_EQ(got.bucket_count(), want.bucket_count()) << label;
  for (std::size_t b = 0; b < want.bucket_count(); ++b)
    EXPECT_EQ(got[b], want[b]) << label << " bucket " << b;
}

TEST(IntegrityInvariants, SilentResultFlipNeverEscapesToTheClient) {
  const PointsSoA pts = test_points();
  core::TwoBodyFramework fw;
  const SdhResult golden = fw.sdh(pts, kWidth, kBuckets);

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.backend_failover = true;  // the independent rung the ladder escapes to
  cfg.faults.resize(1);
  cfg.faults[0].silent_result_rate = 1.0;  // every launch flips one bit
  QueryEngine engine(cfg);

  auto fut = engine.sdh(pts, kWidth, kBuckets);
  const SdhResult got = std::get<SdhResult>(fut.get());
  expect_hist_equal(got.hist, golden.hist, "failover answer");

  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.counters.integrity_violations, 1u);
  EXPECT_EQ(stats.counters.failovers, 1u);
  EXPECT_EQ(stats.counters.failed, 0u);

  // The corrupted attempt must not have poisoned the cache: a resubmission
  // serves the clean failover answer.
  auto again = engine.sdh(pts, kWidth, kBuckets);
  expect_hist_equal(std::get<SdhResult>(again.get()).hist, golden.hist,
                    "cached answer");
}

TEST(IntegrityInvariants, PcfResultFlipEvadesInvariantsButNotTheAudit) {
  // A low-bit flip in a PCF pair count stays inside [0, N(N-1)/2], so no
  // algebraic invariant can see it — unlike an SDH bucket flip, which
  // breaks total-count conservation. This is precisely the gap the audit
  // layer exists for: the bit-exact re-execution on the independent CPU
  // backend disagrees, the corrupt answer is replaced with the reference,
  // and the client still receives the exact count.
  const PointsSoA pts = test_points(12);
  core::TwoBodyFramework fw;
  const std::uint64_t golden = fw.pcf(pts, 3.0).pairs_within;

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.audit_rate = 1.0;
  cfg.faults.resize(1);
  cfg.faults[0].silent_result_rate = 1.0;
  QueryEngine engine(cfg);

  auto fut = engine.pcf(pts, 3.0);
  EXPECT_EQ(std::get<PcfResult>(fut.get()).pairs_within, golden);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.integrity_violations, 0u);  // invariants blind
  EXPECT_GE(stats.counters.audit_mismatches, 1u);      // the audit is not
  EXPECT_EQ(stats.counters.failed, 0u);
}

TEST(IntegrityAudit, StagedBufferFlipIsCaughtByCrossBackendAudit) {
  const PointsSoA pts = test_points(13);
  core::TwoBodyFramework fw;
  const SdhResult golden = fw.sdh(pts, kWidth, kBuckets);

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.audit_rate = 1.0;  // audit every completion
  cfg.faults.resize(1);
  // Staged flip: the kernel computes a perfectly conserved histogram over
  // slightly-wrong points — invisible to the invariant layer by design.
  cfg.faults[0].silent_staged_rate = 1.0;

  // Every query type launches through the same backend seam, so the flip
  // reaches kNN and join too; the client must receive the CPU answer.
  cpubase::ThreadPool pool(2);
  kernels::KnnResult knn_want;
  knn_want.neighbours = cpubase::cpu_knn(pool, pts, 4);
  kernels::JoinResult join_want;
  join_want.pairs = cpubase::cpu_distance_join(pool, pts, 2.0);
  const std::vector<std::pair<Query, QueryResult>> inputs = {
      {SdhQuery{kWidth, kBuckets}, golden},
      {KnnQuery{4}, knn_want},
      {JoinQuery{2.0}, join_want}};

  for (const auto& [query, want] : inputs) {
    SCOPED_TRACE(kind_name(query));
    QueryEngine engine(cfg);
    auto fut = engine.submit(query, pts);
    const QueryResult got = fut.get();
    if (const auto* sdh = std::get_if<SdhResult>(&got))
      expect_hist_equal(sdh->hist, golden.hist, "audited answer");
    EXPECT_TRUE(results_bit_identical(got, want));

    const EngineStats stats = engine.stats();
    EXPECT_GE(stats.counters.audits, 1u);
    EXPECT_GE(stats.counters.audit_mismatches, 1u);
    EXPECT_GE(stats.counters.quarantines, 1u);
    // The worker whose backend produced the mismatch is quarantined.
    EXPECT_EQ(engine.breaker(0).state(), CircuitBreaker::State::Open);
    // The replacement answer is degraded (fallback lane) — never cached.
    EXPECT_GE(stats.counters.degraded, 1u);
    EXPECT_EQ(stats.counters.failed, 0u);
  }
}

TEST(IntegrityAudit, CleanRunAuditsAreBitIdenticalAndQuarantineNothing) {
  const PointsSoA pts = test_points(14);
  core::TwoBodyFramework fw;

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.audit_rate = 1.0;
  cfg.cache_capacity = 0;  // every submission executes and audits
  QueryEngine engine(cfg);

  std::vector<double> radii{1.0, 2.0, 3.0};
  for (const double r : radii) {
    auto fut = engine.pcf(pts, r);
    EXPECT_EQ(std::get<PcfResult>(fut.get()).pairs_within,
              fw.pcf(pts, r).pairs_within)
        << "radius " << r;
  }
  auto fut = engine.sdh(pts, kWidth, kBuckets);
  expect_hist_equal(std::get<SdhResult>(fut.get()).hist,
                    fw.sdh(pts, kWidth, kBuckets).hist, "clean sdh");

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.counters.audits, 4u);
  EXPECT_EQ(stats.counters.audit_mismatches, 0u);
  EXPECT_EQ(stats.counters.quarantines, 0u);
  EXPECT_EQ(stats.counters.degraded, 0u);
  EXPECT_EQ(engine.breaker(0).state(), CircuitBreaker::State::Closed);
}

TEST(IntegrityNegative, DisabledChecksLetACorruptResultEscape) {
  // The CI negative test's in-process twin: with the defense switched off,
  // the same silent-result chaos delivers a wrong answer — proof that the
  // integrity layer (not luck) is what keeps corruption out.
  const PointsSoA pts = test_points(15);
  core::TwoBodyFramework fw;
  const SdhResult golden = fw.sdh(pts, kWidth, kBuckets);

  set_integrity_enabled(false);
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.faults.resize(1);
  cfg.faults[0].silent_result_rate = 1.0;
  QueryEngine engine(cfg);

  auto fut = engine.sdh(pts, kWidth, kBuckets);
  const SdhResult got = std::get<SdhResult>(fut.get());
  set_integrity_enabled(true);

  EXPECT_NE(got.hist.total(), golden.hist.total());
  EXPECT_EQ(engine.stats().counters.integrity_violations, 0u);
}

TEST(InputValidation, NaNDatasetIsRejectedBeforeFingerprintingOrLaunch) {
  // Regression guard: before validation existed, a NaN dataset executed,
  // produced a garbage histogram, and was cached under its fingerprint —
  // served to every future identical submission. The reject must happen
  // before any of that machinery runs.
  PointsSoA pts = test_points(16);
  pts.set(kN / 2, Point3{std::numeric_limits<float>::quiet_NaN(), 0.0f, 0.0f});

  QueryEngine engine(QueryEngine::Config{.devices = 1,
                                         .streams_per_device = 1});
  EXPECT_THROW((void)engine.sdh(pts, kWidth, kBuckets), InvalidQueryError);
  EXPECT_EQ(engine.launch_count(), 0u);   // never reached a device
  EXPECT_EQ(engine.cache().size(), 0u);   // never acquired a cache identity
  EXPECT_EQ(engine.stats().counters.rejected_invalid, 1u);

  // Inf is rejected the same way, through try_submit too.
  PointsSoA inf_pts = test_points(17);
  inf_pts.set(0, Point3{std::numeric_limits<float>::infinity(), 0.0f, 0.0f});
  EXPECT_THROW((void)engine.try_submit(PcfQuery{1.0}, inf_pts),
               InvalidQueryError);

  // A valid query on the same engine still works.
  core::TwoBodyFramework fw;
  const PointsSoA ok = test_points(18);
  auto fut = engine.pcf(ok, 2.0);
  EXPECT_EQ(std::get<PcfResult>(fut.get()).pairs_within,
            fw.pcf(ok, 2.0).pairs_within);
}

TEST(InputValidation, DegenerateQueryParametersAreRejected) {
  const PointsSoA pts = test_points(19);
  QueryEngine engine(QueryEngine::Config{.devices = 1,
                                         .streams_per_device = 1});
  EXPECT_THROW((void)engine.sdh(pts, 0.0, kBuckets), InvalidQueryError);
  EXPECT_THROW((void)engine.sdh(pts, -1.0, kBuckets), InvalidQueryError);
  EXPECT_THROW((void)engine.sdh(pts, kWidth, 0), InvalidQueryError);
  EXPECT_THROW((void)engine.pcf(pts, -2.0), InvalidQueryError);
  EXPECT_THROW((void)engine.pcf(pts, std::numeric_limits<double>::quiet_NaN()),
               InvalidQueryError);
  EXPECT_THROW((void)engine.knn(pts, 0), InvalidQueryError);
  EXPECT_THROW((void)engine.join(pts, 0.0), InvalidQueryError);
  EXPECT_EQ(engine.stats().counters.rejected_invalid, 7u);
  EXPECT_EQ(engine.launch_count(), 0u);
}

TEST(IntegrityInvariants, KnnRowOutOfOrderOrOfWrongLengthIsRejected) {
  const PointsSoA pts = test_points(16);
  cpubase::ThreadPool pool(2);
  kernels::KnnResult r;
  r.neighbours = cpubase::cpu_knn(pool, pts, 3);
  EXPECT_NO_THROW(verify_result(KnnQuery{3}, pts, r, "test"));

  kernels::KnnResult unsorted = r;
  std::swap(unsorted.neighbours[7][0], unsorted.neighbours[7][2]);
  ASSERT_LT(unsorted.neighbours[7][2], unsorted.neighbours[7][0]);
  EXPECT_THROW(verify_result(KnnQuery{3}, pts, unsorted, "test"),
               IntegrityError);

  kernels::KnnResult short_row = r;
  short_row.neighbours[3].pop_back();
  EXPECT_THROW(verify_result(KnnQuery{3}, pts, short_row, "test"),
               IntegrityError);
}

TEST(IntegrityInvariants, JoinPairOutsideTheRadiusIsRejected) {
  const PointsSoA pts = test_points(17);
  cpubase::ThreadPool pool(2);
  kernels::JoinResult r;
  r.pairs = cpubase::cpu_distance_join(pool, pts, 1.0);
  ASSERT_FALSE(r.pairs.empty());
  EXPECT_NO_THROW(verify_result(JoinQuery{1.0}, pts, r, "test"));

  // A canonical, in-range pair the kernels' own test rejects.
  std::uint32_t j = 1;
  while (dist2(pts[0], pts[j]) < 1.0f) ++j;
  r.pairs.emplace_back(0u, j);
  EXPECT_THROW(verify_result(JoinQuery{1.0}, pts, r, "test"), IntegrityError);
}

TEST(IntegrityHedging, StalledShardLaneIsHedgedWithExactAnswer) {
  const PointsSoA pts = test_points(20);
  core::TwoBodyFramework fw;
  const SdhResult golden = fw.sdh(pts, kWidth, kBuckets);

  QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 1;
  cfg.shard_hedge_after_seconds = 0.02;
  cfg.faults.resize(1);
  cfg.faults[0].stall_rate = 1.0;      // device 0 is a chronic straggler
  cfg.faults[0].stall_seconds = 0.25;  // far past the hedge threshold
  QueryEngine engine(cfg);

  SubmitOptions opts;
  opts.shards = 2;
  auto fut = engine.sdh(pts, kWidth, kBuckets, opts);
  expect_hist_equal(std::get<SdhResult>(fut.get()).hist, golden.hist,
                    "hedged sharded answer");

  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.counters.shard_tiles_hedged, 1u);
  EXPECT_GE(stats.counters.shard_hedge_wins, 1u);
  EXPECT_EQ(stats.counters.failed, 0u);
}

}  // namespace
}  // namespace tbs::serve
