// One engine event, every sink. QueryEngine records each event through one
// call and one table row, which feed the `serve.*` counters, the flight
// ring, the cost ledger and trace retention together — so after any run
// the sinks must agree exactly. These tests drive every event family on
// engines whose ring drops nothing: transient faults with retries, a dead
// device behind the failover rung, silent PCF result flips under full
// audit, a sharded query that loses a lane, an SLO breach, admission
// shedding, deadline expiry and shutdown abandonment. Then they reconcile
// the sinks against each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/datagen.hpp"
#include "obs/cost.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/flight_recorder.hpp"
#include "vgpu/fault.hpp"

namespace tbs::serve {
namespace {

namespace json = tbs::obs::json;
using Event = FlightRecorder::Event;

/// Every kind that writes the ring, and the counter its entries must equal.
const std::pair<Event, const char*> kRingCounters[] = {
    {Event::Submit, "serve.submitted"},
    {Event::CacheHit, "serve.cache_hits"},
    {Event::Coalesce, "serve.coalesced"},
    {Event::Shed, "serve.rejected"},
    {Event::Fail, "serve.failed"},
    {Event::Fault, "serve.faults"},
    {Event::Retry, "serve.retries"},
    {Event::BreakerOpen, "serve.breaker_opens"},
    {Event::Degraded, "serve.degraded"},
    {Event::Expire, "serve.expired"},
    {Event::Requeue, "serve.requeued"},
    {Event::Abandon, "serve.abandoned"},
    {Event::Failover, "serve.failovers"},
    {Event::ShardFailover, "serve.shard.lanes_lost"},
    {Event::ShardQuery, "serve.shard.queries"},
    {Event::IntegrityViolation, "serve.integrity.invariant_violations"},
    {Event::Audit, "serve.integrity.audits"},
    {Event::AuditMismatch, "serve.integrity.audit_mismatches"},
    {Event::Quarantine, "serve.integrity.quarantines"},
    {Event::SloBreach, "serve.slo.breached"},
};

/// Kinds that mark their query eventful: its trace must survive sampling.
const Event kEventful[] = {
    Event::Fail,          Event::Fault,         Event::Retry,
    Event::BreakerOpen,   Event::Degraded,      Event::Expire,
    Event::Abandon,       Event::Failover,      Event::ShardFailover,
    Event::IntegrityViolation, Event::AuditMismatch, Event::Quarantine,
    Event::SloBreach,
};

/// A ring that holds every event, no dump files, and a tracer that keeps
/// no healthy trace (keep 0 of every 2^20).
QueryEngine::Config observed(obs::Tracer& tracer) {
  QueryEngine::Config cfg;
  cfg.flight_capacity = 1u << 16;
  cfg.flight.dump_path = "";
  cfg.tracer = &tracer;
  cfg.trace_sample_keep = 0;
  cfg.trace_sample_of = 1u << 20;
  return cfg;
}

/// Wait for an answer; a typed failure is an outcome too.
void settle(const QueryEngine::ResultFuture& fut) {
  try {
    (void)fut.get();
  } catch (const std::exception&) {
  }
}

/// Shut `engine` down, reconcile its sinks, and add its ring tallies to
/// `seen` (so the caller can check which event families ran).
void expect_sinks_agree(QueryEngine& engine, const obs::Tracer& tracer,
                        std::map<Event, std::uint64_t>& seen) {
  engine.shutdown();
  const FlightRecorder& flight = engine.flight_recorder();
  ASSERT_EQ(flight.dropped(), 0u);
  const std::vector<FlightRecorder::Record> ring = flight.snapshot();
  ASSERT_EQ(ring.size(), flight.total_recorded());
  std::map<Event, std::uint64_t> kinds;
  for (const FlightRecorder::Record& r : ring) {
    ++kinds[r.event];
    EXPECT_NE(r.trace_id, 0u) << FlightRecorder::to_string(r.event);
  }

  const json::Value doc = json::parse(engine.metrics_json());
  const auto counter = [&](const char* name) {
    return static_cast<std::uint64_t>(doc.at("counters").at(name).number);
  };
  for (const auto& [kind, name] : kRingCounters)
    EXPECT_EQ(kinds[kind], counter(name))
        << FlightRecorder::to_string(kind) << " entries vs " << name;
  EXPECT_EQ(kinds[Event::Complete] + kinds[Event::Fail],
            counter("serve.executed"));
  EXPECT_EQ(kinds[Event::Complete] + kinds[Event::CacheHit],
            counter("serve.completed"));

  // The ledger: every recorded query is still in the recent ring, its
  // flags and retries sum to the counters, and each query's retries equal
  // its own Retry ring entries, joined by trace id.
  const std::vector<obs::QueryCost> recent = engine.cost_ledger().recent();
  ASSERT_EQ(recent.size(), engine.cost_ledger().total().queries);
  std::uint64_t retries = 0, failovers = 0, degraded = 0;
  for (const obs::QueryCost& qc : recent) {
    retries += qc.retries;
    failovers += qc.failover ? 1 : 0;
    degraded += qc.degraded ? 1 : 0;
    const auto own_retries = std::count_if(
        ring.begin(), ring.end(), [&](const FlightRecorder::Record& r) {
          return r.event == Event::Retry && r.trace_id == qc.trace_id;
        });
    EXPECT_EQ(static_cast<std::uint64_t>(own_retries), qc.retries)
        << "trace " << obs::trace_id_hex(qc.trace_id);
  }
  EXPECT_EQ(retries, counter("serve.retries"));
  EXPECT_EQ(failovers, counter("serve.failovers"));
  EXPECT_EQ(degraded, counter("serve.degraded"));

  // Trace retention: no healthy trace is kept, but every query with an
  // eventful ring entry still has its spans.
  std::set<std::uint64_t> traced;
  for (const obs::SpanRecord& s : tracer.snapshot()) traced.insert(s.trace_id);
  for (const FlightRecorder::Record& r : ring) {
    const bool eventful = std::find(std::begin(kEventful),
                                    std::end(kEventful),
                                    r.event) != std::end(kEventful);
    if (eventful) {
      EXPECT_TRUE(traced.count(r.trace_id))
          << FlightRecorder::to_string(r.event) << " trace "
          << obs::trace_id_hex(r.trace_id) << " was sampled away";
    }
  }

  for (const auto& [kind, n] : kinds) seen[kind] += n;
}

TEST(EngineEvents, EverySinkAgrees) {
  std::map<Event, std::uint64_t> seen;
  const PointsSoA pts = uniform_box(500, 10.0f, 12);
  const double width = pts.max_possible_distance() / 16 + 1e-4;

  {  // Loud chaos: transient faults, a dead device, a lane lost, a breach.
    obs::Tracer tracer;
    tracer.enable();
    QueryEngine::Config cfg = observed(tracer);
    cfg.devices = 3;
    cfg.streams_per_device = 1;
    cfg.backend_failover = true;
    cfg.retry.max_attempts = 4;
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.cooldown_seconds = 0.005;
    cfg.faults.resize(3);
    cfg.faults[0].fail_first_n = 2;  // transient: retried with backoff
    cfg.faults[0].transient_rate = 0.3;
    cfg.faults[1].device_lost = true;  // dead: fails over to the CPU
    cfg.slo.latency_seconds = 1e-9;    // every completion is slow
    cfg.slo.window_seconds = 60.0;
    cfg.slo.min_samples = 3;
    QueryEngine engine(cfg);
    std::vector<QueryEngine::ResultFuture> futs;
    for (int i = 0; i < 12; ++i)
      futs.push_back(engine.pcf(pts, 1.0 + 0.25 * i));
    SubmitOptions sharded;
    sharded.shards = 4;  // one lane per device: the dead one is lost
    futs.push_back(engine.sdh(pts, width, 16, sharded));
    for (const auto& f : futs) settle(f);
    settle(engine.pcf(pts, 1.0));  // a cache hit
    expect_sinks_agree(engine, tracer, seen);
  }

  {  // Silent PCF result flips, every answer audited.
    obs::Tracer tracer;
    tracer.enable();
    QueryEngine::Config cfg = observed(tracer);
    cfg.devices = 1;
    cfg.streams_per_device = 1;
    cfg.audit_rate = 1.0;
    cfg.breaker.cooldown_seconds = 0.005;
    cfg.faults.resize(1);
    cfg.faults[0].silent_result_rate = 1.0;
    QueryEngine engine(cfg);
    for (int i = 0; i < 4; ++i) settle(engine.pcf(pts, 3.0 + 0.5 * i));
    expect_sinks_agree(engine, tracer, seen);
  }

  {  // Admission: one job expires in the queue, one submit is shed, one
     // blocked submit expires waiting for a slot.
    obs::Tracer tracer;
    tracer.enable();
    QueryEngine::Config cfg = observed(tracer);
    cfg.devices = 1;
    cfg.streams_per_device = 1;
    cfg.autostart = false;
    cfg.queue_capacity = 2;
    QueryEngine engine(cfg);
    SubmitOptions soon;
    soon.deadline_seconds = 0.001;
    const auto doomed = engine.pcf(pts, 1.0, soon);
    const auto kept = engine.pcf(pts, 1.5);
    EXPECT_FALSE(engine.try_submit(PcfQuery{2.0}, pts).has_value());
    SubmitOptions brief;
    brief.deadline_seconds = 0.005;
    const auto late = engine.pcf(pts, 2.5, brief);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine.start();
    EXPECT_THROW((void)doomed.get(), DeadlineExceeded);
    EXPECT_THROW((void)late.get(), DeadlineExceeded);
    settle(kept);
    expect_sinks_agree(engine, tracer, seen);
  }

  {  // Shutdown with work still queued: every job is abandoned, loudly.
    obs::Tracer tracer;
    tracer.enable();
    QueryEngine::Config cfg = observed(tracer);
    cfg.devices = 1;
    cfg.streams_per_device = 1;
    cfg.autostart = false;
    QueryEngine engine(cfg);
    const auto a = engine.pcf(pts, 1.0);
    const auto b = engine.pcf(pts, 2.0);
    expect_sinks_agree(engine, tracer, seen);
    EXPECT_THROW((void)a.get(), ServeError);
    EXPECT_THROW((void)b.get(), ServeError);
  }

  // Between them the engines ran every event family this test reconciles.
  for (const Event e :
       {Event::CacheHit, Event::Fault, Event::Retry, Event::BreakerOpen,
        Event::Failover, Event::Degraded, Event::Requeue, Event::ShardQuery,
        Event::ShardFailover, Event::Audit, Event::AuditMismatch,
        Event::Quarantine, Event::SloBreach, Event::Shed, Event::Expire,
        Event::Abandon})
    EXPECT_GT(seen[e], 0u) << FlightRecorder::to_string(e) << " never ran";
}

TEST(EngineEvents, EveryKindHasItsOwnName) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < FlightRecorder::kEvents; ++k) {
    const std::string name =
        FlightRecorder::to_string(static_cast<Event>(k));
    EXPECT_NE(name, "unknown") << "kind " << k;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

}  // namespace
}  // namespace tbs::serve
