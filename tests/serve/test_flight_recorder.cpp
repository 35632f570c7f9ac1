// FlightRecorder — the serve engine's bounded ring of recent per-query
// events. The properties under test are the ones the dump relies on:
// wrap-around keeps exactly the newest events, concurrent writers never
// corrupt a snapshot (torn slots are skipped, not misread), the automatic
// dump fires once per window no matter how many workers race it, and the
// dump file is a schema-valid document obs::json can parse.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/datagen.hpp"
#include "obs/json.hpp"
#include "serve/engine.hpp"
#include "serve/flight_recorder.hpp"

namespace tbs::serve {
namespace {

namespace json = tbs::obs::json;
using Event = FlightRecorder::Event;

TEST(FlightRecorder, ZeroCapacityDisablesRecording) {
  FlightRecorder rec(0);
  EXPECT_FALSE(rec.enabled());
  rec.record(Event::Submit, "k");  // must be a harmless no-op
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.total_recorded(), 0u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
}

TEST(FlightRecorder, WrapAroundKeepsNewestEventsOldestFirst) {
  FlightRecorder rec(8);
  for (int i = 0; i < 20; ++i)
    rec.record(Event::Submit, "key" + std::to_string(i));
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ticket, 12u + i);  // only the newest 8 survive
    EXPECT_EQ(events[i].key, "key" + std::to_string(12 + i));
  }
  // Timestamps are monotone within a single-writer history.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].t_us, events[i - 1].t_us);
}

TEST(FlightRecorder, KeysTruncateToTheRingSlotWidth) {
  FlightRecorder rec(4);
  const std::string long_key(FlightRecorder::kKeyBytes + 32, 'x');
  rec.record(Event::Enqueue, long_key);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].key, long_key.substr(0, FlightRecorder::kKeyBytes));
}

TEST(FlightRecorder, CompleteCarriesWorkerAndLatency) {
  FlightRecorder rec(4);
  rec.record(Event::Complete, "job", /*worker=*/3, /*latency_seconds=*/0.25);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event, Event::Complete);
  EXPECT_EQ(events[0].worker, 3u);
  EXPECT_DOUBLE_EQ(events[0].latency_seconds, 0.25);
}

// Concurrent writers on a small ring: the scan must only ever return
// records whose payload is consistent with their ticket (the seqlock's
// whole job). Every writer tags its events with its thread id, and every
// snapshotted record must carry the key its ticket's writer wrote.
TEST(FlightRecorder, ConcurrentWritersNeverYieldTornRecords) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  FlightRecorder rec(64);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::vector<FlightRecorder::Record>> scans;
  std::thread reader([&] {
    while (!go.load()) {}
    while (!stop.load()) scans.push_back(rec.snapshot());
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&rec, t, &go] {
      while (!go.load()) {}
      const std::string key = "writer" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i)
        rec.record(Event::Submit, key, static_cast<std::uint32_t>(t));
    });
  go.store(true);
  for (std::thread& w : writers) w.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(rec.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  scans.push_back(rec.snapshot());  // one quiescent scan always present
  for (const auto& scan : scans) {
    std::set<std::uint64_t> tickets;
    for (const auto& r : scan) {
      EXPECT_TRUE(tickets.insert(r.ticket).second)
          << "duplicate ticket " << r.ticket;
      // Payload consistency: the key must match the worker id written
      // alongside it — a torn slot would pair one writer's key with
      // another's worker field.
      EXPECT_EQ(r.key, "writer" + std::to_string(r.worker));
    }
  }
}

TEST(FlightRecorder, SloBreachDumpsExactlyOncePerWindow) {
  FlightRecorder::SloPolicy policy;
  policy.window_seconds = 3600.0;  // one dump for the whole test
  policy.dump_path = "";           // count the breach, skip the file
  FlightRecorder rec(16, policy);
  rec.record(Event::Submit, "q");

  EXPECT_FALSE(rec.maybe_dump(Event::Fault));  // not a dump cause
  EXPECT_EQ(rec.auto_dumps(), 0u);

  // Many workers observe the breach at once; exactly one wins the CAS.
  std::atomic<int> wins{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < 100; ++i)
        if (rec.maybe_dump(Event::SloBreach)) wins.fetch_add(1);
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_EQ(rec.auto_dumps(), 1u);
  EXPECT_FALSE(rec.maybe_dump(Event::SloBreach));  // window still open
}

// The SloMonitor is the engine's only breach gate: with no latency
// objective configured, even absurdly slow traffic never dumps.
TEST(FlightRecorder, ZeroThresholdDisablesTheSloGate) {
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  cfg.flight.window_seconds = 0.0;  // no window would hold a dump back
  cfg.flight.dump_path = "";
  QueryEngine engine(cfg);
  ASSERT_FALSE(engine.slo().enabled());

  const auto pts = uniform_box(400, 10.0f, 9);
  for (int i = 0; i < 12; ++i) (void)engine.pcf(pts, 1.0 + 0.1 * i).get();
  engine.shutdown();

  EXPECT_EQ(engine.flight_recorder().auto_dumps(), 0u);
  const json::Value metrics = json::parse(engine.metrics_json());
  EXPECT_EQ(metrics.at("counters").at("serve.slo.breached").number, 0.0);
  for (const auto& r : engine.flight_recorder().snapshot())
    EXPECT_NE(r.event, Event::SloBreach);
}

TEST(FlightRecorder, ShedDumpHonoursPolicyAndWindow) {
  FlightRecorder off(16);  // dump_on_shed defaults to false
  EXPECT_FALSE(off.maybe_dump(Event::Shed));

  FlightRecorder::SloPolicy policy;
  policy.dump_on_shed = true;
  policy.window_seconds = 3600.0;
  policy.dump_path = "";
  FlightRecorder rec(16, policy);
  EXPECT_TRUE(rec.maybe_dump(Event::Shed));
  EXPECT_FALSE(rec.maybe_dump(Event::Shed));  // rate-limited by the window
  EXPECT_EQ(rec.auto_dumps(), 1u);
}

TEST(FlightRecorder, DumpFileIsSchemaValidJson) {
  FlightRecorder rec(8);
  const std::uint64_t trace = 0xabc;
  rec.record(Event::Submit, "sdh|n=2000", 0, 0.0, trace);
  rec.record(Event::Enqueue, "sdh|n=2000", 0, 0.0, trace);
  rec.record(Event::ExecuteBegin, "sdh|n=2000", /*worker=*/1, 0.0, trace);
  rec.record(Event::Complete, "sdh|n=2000", /*worker=*/1, /*latency=*/0.002,
             trace);

  const std::string path = ::testing::TempDir() + "tbs_flight_dump.json";
  ASSERT_TRUE(rec.dump(path, "manual", /*p99=*/0.002, /*threshold=*/0.010));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());

  EXPECT_EQ(doc.at("schema").string, "tbs.flight_recorder.v1");
  EXPECT_EQ(doc.at("reason").string, "manual");
  EXPECT_DOUBLE_EQ(doc.at("p99_seconds").number, 0.002);
  EXPECT_DOUBLE_EQ(doc.at("threshold_seconds").number, 0.010);
  EXPECT_DOUBLE_EQ(doc.at("total_recorded").number, 4.0);
  EXPECT_DOUBLE_EQ(doc.at("dropped").number, 0.0);

  const json::Value& events = doc.at("events");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 4u);
  for (const json::Value& e : events.array) {
    EXPECT_TRUE(e.at("ticket").is_number());
    EXPECT_TRUE(e.at("t_us").is_number());
    EXPECT_TRUE(e.at("event").is_string());
    EXPECT_EQ(e.at("trace_id").string, "0000000000000abc");
    EXPECT_EQ(e.at("key").string, "sdh|n=2000");
  }
  EXPECT_EQ(events.array[0].at("event").string, "submit");
  // Latency rides only completion events.
  EXPECT_EQ(events.array[0].find("latency_seconds"), nullptr);
  const json::Value& done = events.array[3];
  EXPECT_EQ(done.at("event").string, "complete");
  EXPECT_DOUBLE_EQ(done.at("worker").number, 1.0);
  EXPECT_DOUBLE_EQ(done.at("latency_seconds").number, 0.002);
  std::remove(path.c_str());
}

// End-to-end through the engine: queries leave a coherent event trail and
// dump_flight() produces a parseable document.
TEST(FlightRecorder, EngineRecordsQueryLifecycleAndDumps) {
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.flight_capacity = 64;
  QueryEngine engine(cfg);

  const auto pts = uniform_box(500, 10.0f, 7);
  (void)engine.pcf(pts, 1.5).get();
  (void)engine.pcf(pts, 1.5).get();  // second ask: cache hit, no execute

  const auto events = engine.flight_recorder().snapshot();
  ASSERT_FALSE(events.empty());
  auto count = [&](Event e) {
    std::size_t c = 0;
    for (const auto& r : events) c += (r.event == e) ? 1 : 0;
    return c;
  };
  EXPECT_EQ(count(Event::Submit), 2u);
  EXPECT_EQ(count(Event::ExecuteBegin), 1u);
  EXPECT_EQ(count(Event::Complete), 1u);
  EXPECT_EQ(count(Event::CacheHit), 1u);

  const std::string path = ::testing::TempDir() + "tbs_engine_flight.json";
  ASSERT_TRUE(engine.dump_flight(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").string, "tbs.flight_recorder.v1");
  EXPECT_GE(doc.at("events").array.size(), 4u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, ResilienceEventKindsSerializeByName) {
  FlightRecorder rec(16);
  rec.record(Event::Fault, "q", 1);
  rec.record(Event::Retry, "q", 1);
  rec.record(Event::BreakerOpen, "q", 1);
  rec.record(Event::Degraded, "q", 1);
  rec.record(Event::Expire, "q", 1);
  rec.record(Event::Requeue, "q", 1);
  rec.record(Event::Abandon, "q");

  const std::string path = ::testing::TempDir() + "tbs_resilience_events.json";
  ASSERT_TRUE(rec.dump(path, "manual", 0.0, 0.0));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  const json::Value& events = doc.at("events");
  ASSERT_EQ(events.array.size(), 7u);
  const char* want[] = {"fault",  "retry",   "breaker_open", "degraded",
                        "expire", "requeue", "abandon"};
  for (std::size_t i = 0; i < events.array.size(); ++i)
    EXPECT_EQ(events.array[i].at("event").string, want[i]) << "event " << i;
  std::remove(path.c_str());
}

TEST(FlightRecorder, BreakerDumpHonoursPolicyAndWindow) {
  FlightRecorder off(16);  // dump_on_breaker defaults to false
  EXPECT_FALSE(off.maybe_dump(Event::BreakerOpen));

  FlightRecorder::SloPolicy policy;
  policy.dump_on_breaker = true;
  policy.window_seconds = 3600.0;
  policy.dump_path = "";
  FlightRecorder rec(16, policy);
  EXPECT_TRUE(rec.maybe_dump(Event::BreakerOpen));
  EXPECT_FALSE(rec.maybe_dump(Event::BreakerOpen));  // rate-limited
  EXPECT_EQ(rec.auto_dumps(), 1u);
}

}  // namespace
}  // namespace tbs::serve
