// The ops plane end to end: query-scoped trace propagation under chaos
// (every retry / failover / shard-failover span carries the query's trace
// id), SLO breach handling (counter + flight dump naming the breaching
// trace), trace sampling (healthy dropped, eventful force-retained), and
// the live metric surface (queue/worker gauges, latency exemplars).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/datagen.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "vgpu/fault.hpp"

namespace tbs::serve {
namespace {

namespace obs = tbs::obs;
namespace json = tbs::obs::json;
using kernels::PcfResult;
using kernels::SdhResult;

constexpr std::size_t kN = 400;
constexpr int kBuckets = 24;

PointsSoA test_points(std::uint64_t seed = 31) {
  return uniform_box(kN, 10.0f, seed);
}

std::string temp_path(const char* leaf) {
  return std::string(::testing::TempDir()) + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Structural invariant of any engine trace: every engine span carries a
/// context, and every non-root parent link resolves to a recorded span of
/// the SAME trace. (The process-global tracer stays disabled in these
/// tests, so the engine tracer's link graph is self-contained.)
void assert_linkage(const std::vector<obs::SpanRecord>& spans) {
  std::map<std::uint64_t, std::uint64_t> span_trace;
  for (const obs::SpanRecord& s : spans) {
    ASSERT_NE(s.trace_id, 0u) << "context-free engine span: " << s.name;
    ASSERT_NE(s.span_id, 0u) << s.name;
    ASSERT_TRUE(span_trace.emplace(s.span_id, s.trace_id).second)
        << "duplicate span id on " << s.name;
  }
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == 0) continue;  // trace root
    const auto it = span_trace.find(s.parent_id);
    ASSERT_NE(it, span_trace.end())
        << s.name << " has a dangling parent link";
    EXPECT_EQ(it->second, s.trace_id)
        << s.name << " is parented across traces";
  }
}

std::set<std::uint64_t> trace_ids_of(const std::vector<obs::SpanRecord>& spans,
                                     const std::string& name) {
  std::set<std::uint64_t> out;
  for (const obs::SpanRecord& s : spans)
    if (s.name == name) out.insert(s.trace_id);
  return out;
}

}  // namespace

TEST(OpsPlaneTrace, RetrySpansCarryTheQuerysTraceIdUnderChaos) {
  obs::Tracer tracer;
  tracer.enable();

  QueryEngine::Config cfg;
  cfg.devices = 1;  // every query lands on the faulty device
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  cfg.retry.max_attempts = 4;
  cfg.retry.max_dispatches = 8;
  cfg.tracer = &tracer;
  cfg.faults.resize(1);
  cfg.faults[0].fail_first_n = 2;  // deterministic: first two launches fault
  QueryEngine engine(cfg);

  const PointsSoA pts = test_points();
  (void)std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  (void)std::get<PcfResult>(engine.pcf(pts, 2.5).get());
  engine.shutdown();

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  assert_linkage(spans);

  // The faults forced retries; each backoff span must belong to the trace
  // of the execute it happened under — that's the whole point of query-
  // scoped tracing: "this retry was THAT query".
  const std::set<std::uint64_t> executes = trace_ids_of(spans, "serve.execute");
  EXPECT_EQ(executes.size(), 2u);
  std::size_t backoffs = 0;
  for (const obs::SpanRecord& s : spans)
    if (s.name == "serve.retry_backoff") {
      ++backoffs;
      EXPECT_TRUE(executes.count(s.trace_id))
          << "retry backoff outside any query's trace";
    }
  EXPECT_GT(backoffs, 0u);
  // Faults are eventful: sampling (default 1-in-1 here) kept both traces.
  const std::set<std::uint64_t> submits = trace_ids_of(spans, "serve.submit");
  EXPECT_EQ(submits, executes);
}

TEST(OpsPlaneTrace, ShardFailoverSpansCarryTheQuerysTraceId) {
  obs::Tracer tracer;
  tracer.enable();

  QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 1;
  cfg.cpu_workers = 1;
  cfg.cpu_threads = 2;
  cfg.tracer = &tracer;
  cfg.faults.resize(2);
  cfg.faults[1].device_lost = true;  // device 1 dies on its first launch
  QueryEngine engine(cfg);

  const PointsSoA pts = test_points(32);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;
  SubmitOptions opts;
  opts.shards = 4;
  (void)std::get<SdhResult>(engine.sdh(pts, width, kBuckets, opts).get());
  engine.shutdown();

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  assert_linkage(spans);

  const std::set<std::uint64_t> submits = trace_ids_of(spans, "serve.submit");
  ASSERT_EQ(submits.size(), 1u);
  const std::uint64_t query_trace = *submits.begin();

  // The lost lane produced ShardFailover spans; every one of them — and
  // every tile/merge span — belongs to the one query's trace, even though
  // they were recorded from lane threads the submit path never touched.
  std::size_t shard_failovers = 0, tiles = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "serve.shard.failover") {
      ++shard_failovers;
      EXPECT_EQ(s.trace_id, query_trace);
    }
    if (s.name == "serve.shard.tile") {
      ++tiles;
      EXPECT_EQ(s.trace_id, query_trace);
    }
    if (s.name == "serve.shard.merge") {
      EXPECT_EQ(s.trace_id, query_trace);
    }
    if (s.name == "vgpu.launch") {
      EXPECT_EQ(s.trace_id, query_trace);
    }
  }
  EXPECT_GE(shard_failovers, 1u);
  EXPECT_GT(tiles, 0u);
}

TEST(OpsPlaneSlo, BreachBumpsCounterAndDumpNamesTheBreachingTrace) {
  obs::Tracer tracer;
  tracer.enable();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  cfg.tracer = &tracer;
  // Every real query is "slow" against a 1ns objective; judged after 3.
  cfg.slo.latency_seconds = 1e-9;
  cfg.slo.window_seconds = 60.0;
  cfg.slo.min_samples = 3;
  cfg.flight.dump_path = temp_path("ops_plane_slo_breach.json");
  // Aggressive sampling: healthy traces would all be dropped — the breach
  // must force-retain the breaching query's trace anyway.
  cfg.trace_sample_keep = 0;
  cfg.trace_sample_of = 1u << 20;
  std::remove(cfg.flight.dump_path.c_str());
  QueryEngine engine(cfg);

  const PointsSoA pts = test_points(33);
  for (int i = 0; i < 5; ++i)
    (void)std::get<PcfResult>(engine.pcf(pts, 1.0 + 0.1 * i).get());
  engine.shutdown();

  EXPECT_GE(engine.slo().breaches(), 1u);
  const json::Value metrics = json::parse(engine.metrics_json());
  EXPECT_GE(metrics.at("counters").at("serve.slo.breached").number, 1.0);
  EXPECT_GE(metrics.at("gauges").at("serve.slo.latency_burn_rate").number,
            1.0);

  // The dump exists, says WHY, names the objective it breached, and names
  // WHO: the breaching query's trace.
  const json::Value dump = json::parse(slurp(cfg.flight.dump_path));
  EXPECT_EQ(dump.at("reason").string, "slo_breach");
  EXPECT_DOUBLE_EQ(dump.at("threshold_seconds").number, 1e-9);
  const std::string& trace_hex = dump.at("trace_id").string;
  ASSERT_EQ(trace_hex.size(), 16u);
  EXPECT_NE(trace_hex, "0000000000000000");

  // Force-retention: that trace survived 0-in-1M sampling and is readable
  // in the tracer, spans intact.
  std::set<std::string> kept;
  for (const obs::SpanRecord& s : tracer.snapshot())
    kept.insert(obs::trace_id_hex(s.trace_id));
  EXPECT_TRUE(kept.count(trace_hex))
      << "breaching trace " << trace_hex << " was sampled away";
}

TEST(OpsPlaneSampling, KeepsTheConfiguredFractionOfHealthyTraces) {
  obs::Tracer tracer;
  tracer.enable();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  cfg.tracer = &tracer;
  cfg.trace_sample_keep = 1;
  cfg.trace_sample_of = 2;  // keep every other healthy query
  QueryEngine engine(cfg);

  const PointsSoA pts = test_points(34);
  for (int i = 0; i < 8; ++i)
    (void)std::get<PcfResult>(engine.pcf(pts, 1.0 + 0.1 * i).get());
  engine.shutdown();

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  assert_linkage(spans);  // dropping removes whole traces, never tears one
  std::set<std::uint64_t> kept;
  for (const obs::SpanRecord& s : spans) kept.insert(s.trace_id);
  // Sequential submits get sequential sample slots: exactly 4 of 8 kept,
  // and every kept trace is complete (submit + execute + launches).
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_EQ(trace_ids_of(spans, "serve.submit").size(), 4u);
  EXPECT_EQ(trace_ids_of(spans, "serve.execute").size(), 4u);
}

TEST(OpsPlaneMetrics, QueueDepthAndPerWorkerInflightGaugesExist) {
  QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 1;
  cfg.cpu_workers = 1;
  cfg.cpu_threads = 2;
  QueryEngine engine(cfg);
  const PointsSoA pts = test_points(35);
  (void)std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  // .get() returns when the promise is fulfilled, a moment before the
  // worker clears its in-flight gauge — join the workers first.
  engine.shutdown();

  const json::Value metrics = json::parse(engine.metrics_json());
  const json::Value& gauges = metrics.at("gauges");
  ASSERT_NE(gauges.find("serve.queue_depth"), nullptr);
  EXPECT_EQ(gauges.at("serve.queue_depth").number, 0.0);  // drained
  // One inflight gauge per worker (2 vgpu + 1 cpu), all idle after the
  // query completed.
  for (const char* name : {"serve.worker.0.inflight", "serve.worker.1.inflight",
                           "serve.worker.2.inflight"}) {
    ASSERT_NE(gauges.find(name), nullptr) << name;
    EXPECT_EQ(gauges.at(name).number, 0.0) << name;
  }
  EXPECT_EQ(gauges.find("serve.worker.3.inflight"), nullptr);
  // Backend placement gauges ride along per slot.
  EXPECT_NE(gauges.find("backend.gpu0.launches"), nullptr);
  EXPECT_NE(gauges.find("backend.cpu0.launches"), nullptr);
}

TEST(OpsPlaneMetrics, DeviceFaultGaugeCountsWorkerLaunchFaults) {
  // Worker launches run through each worker's own lane onto the device;
  // the gauge must count their faults too, not only the shard lane's.
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.retry.max_attempts = 4;  // the first query absorbs all three faults
  cfg.faults.resize(1);
  cfg.faults[0].fail_first_n = 3;
  QueryEngine engine(cfg);
  const PointsSoA pts = test_points(37);
  const double width = pts.max_possible_distance() / 32 + 1e-4;
  for (int i = 0; i < 4; ++i)
    (void)std::get<SdhResult>(engine.sdh(pts, width, 32 + i).get());
  engine.shutdown();

  EXPECT_EQ(engine.stats().counters.faults, 3u);
  const json::Value metrics = json::parse(engine.metrics_json());
  const json::Value& gauges = metrics.at("gauges");
  ASSERT_NE(gauges.find("backend.gpu0.faults"), nullptr);
  EXPECT_EQ(gauges.at("backend.gpu0.faults").number, 3.0);
}

TEST(OpsPlaneMetrics, LatencyHistogramBucketsCarryExemplarTraceIds) {
  obs::Tracer tracer;
  tracer.enable();

  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  cfg.tracer = &tracer;
  QueryEngine engine(cfg);
  const PointsSoA pts = test_points(36);
  (void)std::get<PcfResult>(engine.pcf(pts, 2.0).get());
  engine.shutdown();

  std::set<std::string> traces;
  for (const obs::SpanRecord& s : tracer.snapshot())
    traces.insert(obs::trace_id_hex(s.trace_id));

  const json::Value metrics = json::parse(engine.metrics_json());
  const json::Value& hist =
      metrics.at("histograms").at("serve.latency_seconds");
  std::size_t exemplars = 0;
  for (const json::Value& bucket : hist.at("buckets").array) {
    const json::Value* ex = bucket.find("exemplar_trace_id");
    if (ex == nullptr) continue;
    ++exemplars;
    EXPECT_EQ(ex->string.size(), 16u);
    // The exemplar points at a real, still-readable trace.
    EXPECT_TRUE(traces.count(ex->string)) << ex->string;
  }
  EXPECT_EQ(exemplars, 1u);  // one query -> one stamped bucket
}

}  // namespace tbs::serve
