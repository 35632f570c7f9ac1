// Planning off the serving path: a worker prices a plan miss's candidates
// without its device's slot lock, so the device's other stream worker
// keeps serving while the miss calibrates, and the calibration launches,
// which run on the block queue's threads, still join the query's trace.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/datagen.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

namespace tbs::serve {
namespace {

QueryResult get_with_watchdog(QueryEngine::ResultFuture& fut,
                              int timeout_seconds = 120) {
  if (fut.wait_for(std::chrono::seconds(timeout_seconds)) !=
      std::future_status::ready)
    throw std::runtime_error("planning test: query hung past the watchdog");
  return fut.get();
}

TEST(EnginePlanning, SlotLockIsFreeWhileAPlanMissCalibrates) {
  // One device, two stream workers. While one worker calibrates an SDH
  // plan miss (15 candidates, three launches each), the other answers a
  // query below the plan threshold before that calibration ends.
  QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 2;
  QueryEngine engine(cfg);

  const PointsSoA big = uniform_box(4096, 10.0f, /*seed=*/31);
  const PointsSoA small = uniform_box(300, 10.0f, /*seed=*/32);
  QueryEngine::ResultFuture planned =
      engine.sdh(big, big.max_possible_distance() / 64 + 1e-4, 64);
  // The worker counts its miss just before it calibrates.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while (engine.plan_cache().misses() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  ASSERT_EQ(engine.plan_cache().misses(), 1u);

  QueryEngine::ResultFuture quick = engine.pcf(small, 1.5);
  (void)get_with_watchdog(quick);
  EXPECT_EQ(engine.plan_cache().size(), 0u)
      << "the small query waited for the calibration to end";

  (void)get_with_watchdog(planned);
  EXPECT_EQ(engine.plan_cache().size(), 1u);
}

TEST(EnginePlanning, CalibrationLaunchesJoinTheQueryTrace) {
  // Each calibration task carries the planning worker's trace context, so
  // every calibration launch's vgpu.launch span is in the query's trace,
  // a child of its core.plan.calibrate span. Planner spans go to the
  // global tracer, so the engine traces there too.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  {
    QueryEngine::Config cfg;
    cfg.devices = 1;
    cfg.streams_per_device = 1;
    QueryEngine engine(cfg);
    QueryEngine::ResultFuture fut =
        engine.pcf(uniform_box(4096, 10.0f, /*seed=*/33), 1.5);
    (void)get_with_watchdog(fut);
  }
  tracer.disable();
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  tracer.clear();

  const obs::SpanRecord* calibrate = nullptr;
  std::uint64_t query_trace = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "core.plan.calibrate") {
      ASSERT_EQ(calibrate, nullptr) << "one plan miss, one calibration";
      calibrate = &s;
    }
    if (s.name == "serve.execute") query_trace = s.trace_id;
  }
  ASSERT_NE(calibrate, nullptr);
  ASSERT_NE(query_trace, 0u);
  EXPECT_EQ(calibrate->trace_id, query_trace);

  std::string candidates;
  for (const auto& [k, v] : calibrate->attrs)
    if (k == "candidates") candidates = v;
  ASSERT_FALSE(candidates.empty());
  std::size_t children = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "vgpu.launch" || s.parent_id != calibrate->span_id)
      continue;
    EXPECT_EQ(s.trace_id, query_trace);
    ++children;
  }
  // A PCF calibration launch is one kernel launch.
  EXPECT_EQ(children, 3 * std::stoul(candidates));
}

}  // namespace
}  // namespace tbs::serve
