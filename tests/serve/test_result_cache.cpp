// ResultCache: LRU order when no cost is given, eviction at capacity,
// recency bumps on hit, and the capacity-0 disabled mode; then the cost
// policy (GreedyDual): expensive entries outlive cheap one-offs for about
// their cost ratio, re-stores and purges, and the engine pricing answers by
// what they took to produce.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/datagen.hpp"
#include "kernels/pcf.hpp"
#include "obs/json.hpp"
#include "serve/engine.hpp"
#include "serve/result_cache.hpp"

namespace tbs::serve {
namespace {

QueryResult pcf_result(std::uint64_t pairs) {
  kernels::PcfResult r;
  r.pairs_within = pairs;
  return r;
}

std::uint64_t pairs_of(const QueryResult& r) {
  return std::get<kernels::PcfResult>(r).pairs_within;
}

/// `prefix` + i, built without `"lit" + std::string`, which trips GCC 12's
/// -Wrestrict false positive when inlined.
std::string numbered(std::string prefix, int i) {
  prefix += std::to_string(i);
  return prefix;
}

TEST(ResultCache, StoresAndFindsByKey) {
  ResultCache cache(4);
  EXPECT_EQ(cache.find("a"), std::nullopt);
  EXPECT_EQ(cache.misses(), 1u);

  cache.store("a", pcf_result(7));
  const auto hit = cache.find("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(pairs_of(*hit), 7u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedAtCapacity) {
  ResultCache cache(2);
  cache.store("a", pcf_result(1));
  cache.store("b", pcf_result(2));
  cache.store("c", pcf_result(3));  // evicts "a" (oldest)

  EXPECT_EQ(cache.find("a"), std::nullopt);
  EXPECT_TRUE(cache.find("b").has_value());
  EXPECT_TRUE(cache.find("c").has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, HitBumpsRecencySoTheOtherEntryEvicts) {
  ResultCache cache(2);
  cache.store("a", pcf_result(1));
  cache.store("b", pcf_result(2));
  ASSERT_TRUE(cache.find("a").has_value());  // "a" now most recent
  cache.store("c", pcf_result(3));           // evicts "b"

  EXPECT_TRUE(cache.find("a").has_value());
  EXPECT_EQ(cache.find("b"), std::nullopt);
  EXPECT_TRUE(cache.find("c").has_value());
}

TEST(ResultCache, RestoreRefreshesValueAndRecency) {
  ResultCache cache(2);
  cache.store("a", pcf_result(1));
  cache.store("b", pcf_result(2));
  cache.store("a", pcf_result(10));  // refresh, "a" most recent
  cache.store("c", pcf_result(3));   // evicts "b"

  const auto hit = cache.find("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(pairs_of(*hit), 10u);
  EXPECT_EQ(cache.find("b"), std::nullopt);
}

TEST(ResultCache, CapacityZeroDisablesStorage) {
  ResultCache cache(0);
  cache.store("a", pcf_result(1));
  EXPECT_EQ(cache.find("a"), std::nullopt);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, ProvenanceInvalidationPurgesOnlyTheTaintedBackend) {
  // The audit quarantine path: when a backend is caught serving corrupt
  // results, every entry it produced is suspect — and only those.
  ResultCache cache(8);
  cache.store("a", pcf_result(1), "vgpu:0");
  cache.store("b", pcf_result(2), "vgpu:1");
  cache.store("c", pcf_result(3), "vgpu:0");
  cache.store("d", pcf_result(4));  // untagged survives any purge

  EXPECT_EQ(cache.invalidate_by_provenance("vgpu:0"), 2u);
  EXPECT_EQ(cache.find("a"), std::nullopt);
  EXPECT_EQ(cache.find("c"), std::nullopt);
  EXPECT_TRUE(cache.find("b").has_value());
  EXPECT_TRUE(cache.find("d").has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.invalidations(), 2u);

  // Purging again, or purging a tag nothing carries, is a no-op.
  EXPECT_EQ(cache.invalidate_by_provenance("vgpu:0"), 0u);
  EXPECT_EQ(cache.invalidate_by_provenance("never-seen"), 0u);
  EXPECT_EQ(cache.invalidations(), 2u);
}

TEST(ResultCache, RestoreRetagsProvenance) {
  // A refresh under a new backend re-assigns blame: the entry now belongs
  // to whichever backend computed the value currently stored.
  ResultCache cache(4);
  cache.store("a", pcf_result(1), "vgpu:0");
  cache.store("a", pcf_result(9), "cpu");
  EXPECT_EQ(cache.invalidate_by_provenance("vgpu:0"), 0u);
  ASSERT_TRUE(cache.find("a").has_value());
  EXPECT_EQ(cache.invalidate_by_provenance("cpu"), 1u);
  EXPECT_EQ(cache.find("a"), std::nullopt);
}

TEST(ResultCachePolicy, ExpensiveEntrySurvivesARunOfCheapOneOffs) {
  // Under LRU the expensive entry would go on the third cheap store.
  ResultCache cache(3);
  cache.store("sdh", pcf_result(1), {}, 1.0);
  for (int i = 0; i < 20; ++i)
    cache.store(numbered("pcf", i), pcf_result(2), {}, 0.01);

  const auto hit = cache.find("sdh");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(pairs_of(*hit), 1u);
  EXPECT_EQ(cache.evictions(), 18u);  // every one a cheap entry
  EXPECT_TRUE(cache.find("pcf19").has_value());
}

TEST(ResultCachePolicy, UnusedExpensiveEntryEvictsOnceTheFloorPassesIt) {
  // No permanent pinning: each cheap eviction raises the floor by one cheap
  // cost, so an entry 4x as costly that is never hit again outlives four
  // cheap one-offs (c0..c3) and goes on the fifth, where its priority ties
  // the newest cheap entry's and it is the older of the two. Costs are
  // powers of two so the priorities add exactly.
  ResultCache cache(2);
  cache.store("big", pcf_result(1), {}, 4.0);
  for (int i = 0; i < 4; ++i)
    cache.store(numbered("c", i), pcf_result(2), {}, 1.0);
  // c0..c2 went, so "big" is still in; a miss changes no priority.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(cache.find(numbered("c", i)), std::nullopt);
  EXPECT_EQ(cache.size(), 2u);

  cache.store("c4", pcf_result(2), {}, 1.0);
  EXPECT_EQ(cache.find("big"), std::nullopt);
  EXPECT_TRUE(cache.find("c3").has_value());
  EXPECT_TRUE(cache.find("c4").has_value());
  EXPECT_EQ(cache.evictions(), 4u);
}

TEST(ResultCachePolicy, RestoreReplacesTheCost) {
  ResultCache cache(2);
  cache.store("b", pcf_result(2), {}, 2.0);
  cache.store("a", pcf_result(1), {}, 8.0);
  cache.store("a", pcf_result(10), {}, 1.0);  // re-produced cheaply
  cache.store("c", pcf_result(3), {}, 2.0);   // evicts "a" at cost 1, not "b"
  EXPECT_EQ(cache.find("a"), std::nullopt);   // a miss changes nothing

  // And the other way: "b" re-stored at a higher cost outlives two cheap
  // stores, where LRU would evict it on the second.
  cache.store("b", pcf_result(2), {}, 64.0);
  cache.store("d", pcf_result(4), {}, 2.0);  // evicts "c"
  cache.store("e", pcf_result(5), {}, 2.0);  // evicts "d"
  EXPECT_EQ(cache.find("c"), std::nullopt);
  EXPECT_EQ(cache.find("d"), std::nullopt);
  ASSERT_TRUE(cache.find("b").has_value());
  EXPECT_DOUBLE_EQ(cache.saved_seconds(), 64.0);  // priced at its new cost
}

TEST(ResultCachePolicy, ProvenancePurgeRemovesExpensiveEntries) {
  // A high recompute cost shields an entry from eviction, never from a
  // quarantine: an audit mismatch purges what the tainted backend wrote.
  ResultCache cache(4);
  cache.store("sdh0", pcf_result(1), "vgpu:0", 100.0);
  cache.store("sdh1", pcf_result(2), "vgpu:0", 100.0);
  cache.store("pcf", pcf_result(3), "cpu", 0.001);

  EXPECT_EQ(cache.invalidate_by_provenance("vgpu:0"), 2u);
  EXPECT_EQ(cache.find("sdh0"), std::nullopt);
  EXPECT_EQ(cache.find("sdh1"), std::nullopt);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);

  // The purge freed its slots: two cheap stores fit without evicting.
  cache.store("x", pcf_result(4), "cpu", 0.001);
  cache.store("y", pcf_result(5), "cpu", 0.001);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.find("pcf").has_value());
}

TEST(ResultCachePolicy, SavedSecondsSumsTheCostOfEveryHit) {
  ResultCache cache(4);
  cache.store("a", pcf_result(1), {}, 0.25);
  cache.store("b", pcf_result(2), {}, 2.0);
  ASSERT_TRUE(cache.find("a").has_value());
  ASSERT_TRUE(cache.find("a").has_value());
  ASSERT_TRUE(cache.find("b").has_value());
  EXPECT_EQ(cache.find("missing"), std::nullopt);  // a miss saves nothing
  EXPECT_DOUBLE_EQ(cache.saved_seconds(), 2.5);
}

// ---- the engine prices what it caches ------------------------------------

QueryResult get_with_watchdog(QueryEngine::ResultFuture& fut) {
  if (fut.wait_for(std::chrono::seconds(120)) != std::future_status::ready)
    throw std::runtime_error("result cache test: query hung");
  return fut.get();
}

/// The engine's gauge `name` as metrics_json() exports it.
double engine_gauge(const QueryEngine& engine, const std::string& name) {
  return obs::json::parse(engine.metrics_json()).at("gauges").at(name).number;
}

/// A one-worker CPU engine; the pinned pair cost keeps the planner's
/// calibration launches out of the count.
QueryEngine::Config cpu_engine_config(std::size_t cache_capacity) {
  QueryEngine::Config cfg;
  cfg.devices = 0;
  cfg.cpu_workers = 1;
  cfg.cpu_threads = 2;
  cfg.cpu_pair_cost_seconds = 1e-9;
  cfg.cache_capacity = cache_capacity;
  return cfg;
}

TEST(ResultCacheEngine, ExpensiveSdhOutlivesCheapPcfMisses) {
  // One SDH over 3000 points bins ~4.5M pairs; a PCF over 200 points
  // examines ~20k. Measured production cost keeps the SDH through four
  // distinct PCF misses in a 2-entry cache; LRU would evict it on the
  // second.
  QueryEngine engine(cpu_engine_config(2));
  const PointsSoA big = uniform_box(3000, 10.0f, /*seed=*/31);
  const PointsSoA small = uniform_box(200, 10.0f, /*seed=*/37);
  const double width = big.max_possible_distance() / 64 + 1e-4;

  QueryEngine::ResultFuture first = engine.sdh(big, width, 64);
  const QueryResult produced = get_with_watchdog(first);
  for (int i = 0; i < 4; ++i) {
    QueryEngine::ResultFuture f = engine.pcf(small, 1.0 + 0.25 * i);
    (void)get_with_watchdog(f);
  }
  EXPECT_EQ(engine.cache().evictions(), 3u);  // every one a PCF

  const std::uint64_t launches = engine.launch_count();
  const std::uint64_t hits = engine.stats().counters.cache_hits;
  SubmitOptions opts;
  opts.cost = std::make_shared<obs::QueryCost>();
  QueryEngine::ResultFuture again = engine.sdh(big, width, 64, opts);
  const QueryResult served = get_with_watchdog(again);

  EXPECT_TRUE(opts.cost->cache_hit);
  EXPECT_EQ(engine.stats().counters.cache_hits, hits + 1);
  EXPECT_EQ(engine.launch_count(), launches);
  const auto& want = std::get<kernels::SdhResult>(produced).hist;
  const auto& got = std::get<kernels::SdhResult>(served).hist;
  ASSERT_EQ(got.bucket_count(), want.bucket_count());
  for (std::size_t b = 0; b < want.bucket_count(); ++b)
    EXPECT_EQ(got[b], want[b]) << "bucket " << b;
}

TEST(ResultCacheEngine, GaugesExportEvictionsAndSavedSeconds) {
  // Sequence: A misses, A hits twice, B misses and evicts A from the
  // 1-entry cache. Each hit saves A's production cost, which is part of
  // A's submit-to-answer time.
  QueryEngine engine(cpu_engine_config(1));
  const PointsSoA pts = uniform_box(400, 10.0f, /*seed=*/41);
  SubmitOptions opts;
  opts.cost = std::make_shared<obs::QueryCost>();
  QueryEngine::ResultFuture a = engine.pcf(pts, 1.0, opts);
  (void)get_with_watchdog(a);
  EXPECT_EQ(engine_gauge(engine, "serve.result_cache.saved_seconds"), 0.0);

  QueryEngine::ResultFuture hit1 = engine.pcf(pts, 1.0);
  (void)get_with_watchdog(hit1);
  const double once = engine_gauge(engine, "serve.result_cache.saved_seconds");
  EXPECT_GT(once, 0.0);
  EXPECT_LE(once, opts.cost->total_seconds);

  QueryEngine::ResultFuture hit2 = engine.pcf(pts, 1.0);
  (void)get_with_watchdog(hit2);
  QueryEngine::ResultFuture b = engine.pcf(pts, 2.0);
  (void)get_with_watchdog(b);

  EXPECT_EQ(engine_gauge(engine, "serve.result_cache.evictions"), 1.0);
  EXPECT_EQ(engine_gauge(engine, "serve.result_cache.saved_seconds"),
            2.0 * once);
  EXPECT_EQ(engine_gauge(engine, "serve.result_cache.entries"), 1.0);
}

/// Three points whose one close pair lies 1 + 2^-22 apart; the others are
/// far from both.
PointsSoA one_close_pair() {
  PointsSoA pts;
  pts.push_back({0.0f, 0.0f, 0.0f});
  pts.push_back({1.0f + 0x1p-22f, 0.0f, 0.0f});
  pts.push_back({10.0f, 10.0f, 10.0f});
  return pts;
}

TEST(ResultCacheKey, CloseRadiiKeepTheirOwnAnswers) {
  // The radii agree to six decimals. Their keys must still differ, or the
  // second query is served the first one's 0.
  const PointsSoA pts = one_close_pair();
  EXPECT_NE(query_key(PcfQuery{1.0000001}, 1),
            query_key(PcfQuery{1.0000004}, 1));
  QueryEngine engine(cpu_engine_config(8));
  QueryEngine::ResultFuture narrow = engine.pcf(pts, 1.0000001);
  EXPECT_EQ(pairs_of(get_with_watchdog(narrow)), 0u);
  QueryEngine::ResultFuture wide = engine.pcf(pts, 1.0000004);
  EXPECT_EQ(pairs_of(get_with_watchdog(wide)), 1u);
  EXPECT_EQ(engine.stats().counters.cache_hits, 0u);
}

TEST(ResultCacheKey, CloseSdhWidthsKeepTheirOwnAnswers) {
  // The widths agree to six decimals. The close pair falls in bucket 1 at
  // the narrower one and in bucket 0 at the wider; the two far pairs clamp
  // into the last bucket.
  const PointsSoA pts = one_close_pair();
  QueryEngine engine(cpu_engine_config(8));
  QueryEngine::ResultFuture narrow = engine.sdh(pts, 1.0000001, 4);
  const QueryResult at_narrow = get_with_watchdog(narrow);
  QueryEngine::ResultFuture wide = engine.sdh(pts, 1.0000004, 4);
  const QueryResult at_wide = get_with_watchdog(wide);
  EXPECT_EQ(engine.stats().counters.cache_hits, 0u);
  const Histogram& n = std::get<kernels::SdhResult>(at_narrow).hist;
  const Histogram& w = std::get<kernels::SdhResult>(at_wide).hist;
  ASSERT_EQ(n.bucket_count(), 4u);
  ASSERT_EQ(w.bucket_count(), 4u);
  EXPECT_EQ((std::array{n[0], n[1], n[2], n[3]}),
            (std::array<std::uint64_t, 4>{0, 1, 0, 2}));
  EXPECT_EQ((std::array{w[0], w[1], w[2], w[3]}),
            (std::array<std::uint64_t, 4>{1, 0, 0, 2}));
}

}  // namespace
}  // namespace tbs::serve
