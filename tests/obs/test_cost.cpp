// obs::CostLedger + QueryCost — phase accounting, tile balance, rollups
// (per backend / variant / dataset), the bounded recent ring, gauge export,
// and JSON serialization; plus the collapsed-stack / time-accounting
// profiler built from span trees.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/cost.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace tbs::obs {
namespace {

namespace json = tbs::obs::json;

QueryCost sample_query(std::uint64_t trace_id = 0x1234,
                       std::uint64_t fp = 0xabcd) {
  QueryCost qc;
  qc.trace_id = trace_id;
  qc.kind = "sdh";
  qc.dataset_fp = fp;
  qc.backend = "vgpu:0";
  qc.variant = "Reg-ROC-Out/B256";
  qc.total_seconds = 0.010;
  qc.phase(CostPhase::Queue).seconds = 0.001;
  qc.phase(CostPhase::Plan).seconds = 0.002;
  qc.phase(CostPhase::Launch).seconds = 0.006;
  qc.phase(CostPhase::Launch).device_cycles = 1e6;
  qc.phase(CostPhase::CacheFill).seconds = 0.0005;
  qc.waste_seconds = 0.0005;
  qc.waste_events = 1;
  qc.retries = 1;
  qc.estimate_seconds = 0.0055;
  qc.raw_estimate_seconds = 0.005;
  qc.measured_seconds = 0.006;
  return qc;
}

TEST(CostPhaseNames, CoverEveryPhase) {
  EXPECT_EQ(to_string(CostPhase::Queue), "queue");
  EXPECT_EQ(to_string(CostPhase::Plan), "plan");
  EXPECT_EQ(to_string(CostPhase::Stage), "stage");
  EXPECT_EQ(to_string(CostPhase::Launch), "launch");
  EXPECT_EQ(to_string(CostPhase::Merge), "merge");
  EXPECT_EQ(to_string(CostPhase::CacheFill), "cache_fill");
  EXPECT_EQ(to_string(CostPhase::Audit), "audit");
}

TEST(QueryCost, AttributedSecondsSumsPhasesAndWaste) {
  const QueryCost qc = sample_query();
  EXPECT_NEAR(qc.attributed_seconds(),
              0.001 + 0.002 + 0.006 + 0.0005 + 0.0005, 1e-12);
}

TEST(QueryCost, TileSecondsBalanceAgainstTheLaunchPhase) {
  // The sharded invariant: the launch phase is Σ tile resource-seconds, so
  // the per-tile rows must reproduce it exactly (the acceptance check
  // allows 1%; construction makes it exact here).
  QueryCost qc = sample_query();
  qc.sharded = true;
  qc.phase(CostPhase::Launch).seconds = 0.0;
  for (int i = 0; i < 6; ++i) {
    TileCost tc;
    tc.a = i / 3;
    tc.b = i % 3;
    tc.lane = static_cast<std::size_t>(i % 2);
    tc.backend = i % 2 == 0 ? "gpu0" : "cpu0";
    tc.seconds = 0.001 * (i + 1);
    qc.phase(CostPhase::Launch).seconds += tc.seconds;
    qc.tiles.push_back(tc);
  }
  EXPECT_NEAR(qc.tile_seconds(), qc.phase(CostPhase::Launch).seconds, 1e-12);
}

TEST(QueryCost, JsonRoundTripsIdentityPhasesAndTiles) {
  QueryCost qc = sample_query(0xdeadbeefULL, 0xfeedULL);
  qc.sharded = true;
  TileCost tc;
  tc.a = 0;
  tc.b = 1;
  tc.lane = 2;
  tc.backend = "cpu0";
  tc.seconds = 0.003;
  tc.failover = true;
  qc.tiles.push_back(tc);

  const json::Value doc = json::parse(qc.to_json());
  EXPECT_EQ(doc.at("trace_id").string, "00000000deadbeef");
  EXPECT_EQ(doc.at("dataset_fp").string, "000000000000feed");
  EXPECT_EQ(doc.at("kind").string, "sdh");
  EXPECT_EQ(doc.at("backend").string, "vgpu:0");
  EXPECT_EQ(doc.at("variant").string, "Reg-ROC-Out/B256");
  EXPECT_NEAR(doc.at("phases").at("launch").at("seconds").number, 0.006,
              1e-12);
  EXPECT_NEAR(doc.at("phases").at("launch").at("device_cycles").number, 1e6,
              1.0);
  EXPECT_EQ(doc.at("waste_events").number, 1.0);
  EXPECT_EQ(doc.at("retries").number, 1.0);
  ASSERT_EQ(doc.at("tiles").array.size(), 1u);
  const json::Value& t = doc.at("tiles").array[0];
  EXPECT_EQ(t.at("lane").number, 2.0);
  EXPECT_EQ(t.at("backend").string, "cpu0");
  EXPECT_TRUE(t.at("failover").boolean);
}

TEST(CostLedger, RollsUpPerBackendVariantAndDataset) {
  CostLedger ledger;
  ledger.record(sample_query(1, 0xa));
  ledger.record(sample_query(2, 0xa));
  QueryCost other = sample_query(3, 0xb);
  other.backend = "cpu:2w";
  other.variant = "Tree-SDH/B256";
  other.failed = true;
  ledger.record(other);
  QueryCost hit;
  hit.trace_id = 4;
  hit.kind = "sdh";
  hit.dataset_fp = 0xa;
  hit.cache_hit = true;
  hit.total_seconds = 1e-5;
  ledger.record(hit);

  const CostLedger::Aggregate total = ledger.total();
  EXPECT_EQ(total.queries, 4u);
  EXPECT_EQ(total.cache_hits, 1u);
  EXPECT_EQ(total.failures, 1u);
  EXPECT_EQ(total.waste_events, 3u);
  EXPECT_NEAR(total.total_seconds, 3 * 0.010 + 1e-5, 1e-12);
  EXPECT_NEAR(total.phase_seconds[static_cast<int>(CostPhase::Launch)],
              3 * 0.006, 1e-12);

  const auto by_backend = ledger.by_backend();
  ASSERT_EQ(by_backend.count("vgpu:0"), 1u);
  EXPECT_EQ(by_backend.at("vgpu:0").queries, 2u);
  ASSERT_EQ(by_backend.count("cpu:2w"), 1u);
  EXPECT_EQ(by_backend.at("cpu:2w").queries, 1u);
  // The cache hit has no backend: it lands only in the total.
  std::uint64_t backend_queries = 0;
  for (const auto& [name, agg] : by_backend) backend_queries += agg.queries;
  EXPECT_EQ(backend_queries, 3u);

  const auto by_variant = ledger.by_variant();
  EXPECT_EQ(by_variant.at("Reg-ROC-Out/B256").queries, 2u);
  EXPECT_EQ(by_variant.at("Tree-SDH/B256").queries, 1u);

  const auto by_dataset = ledger.by_dataset();
  ASSERT_EQ(by_dataset.count("000000000000000a"), 1u);
  EXPECT_EQ(by_dataset.at("000000000000000a").queries, 3u);  // hit included
  EXPECT_EQ(by_dataset.at("000000000000000b").queries, 1u);
}

TEST(CostLedger, RecentRingIsBoundedOldestFirst) {
  CostLedger ledger(/*keep_recent=*/4);
  for (std::uint64_t i = 1; i <= 6; ++i) ledger.record(sample_query(i));
  const std::vector<QueryCost> recent = ledger.recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().trace_id, 3u);
  EXPECT_EQ(recent.back().trace_id, 6u);
}

TEST(CostLedger, ExportsServeCostGauges) {
  CostLedger ledger;
  ledger.record(sample_query());
  MetricsRegistry reg;
  ledger.export_metrics(reg);
  const auto snap = reg.snapshot();
  auto gauge = [&](const std::string& name) -> double {
    for (const auto& [n, v] : snap.gauges)
      if (n == name) return v;
    ADD_FAILURE() << "missing gauge " << name;
    return -1.0;
  };
  EXPECT_EQ(gauge("serve.cost.queries"), 1.0);
  EXPECT_NEAR(gauge("serve.cost.total_seconds"), 0.010, 1e-12);
  EXPECT_NEAR(gauge("serve.cost.phase.launch_seconds"), 0.006, 1e-12);
  EXPECT_NEAR(gauge("serve.cost.waste_seconds"), 0.0005, 1e-12);
  EXPECT_EQ(gauge("serve.cost.waste_events"), 1.0);
  EXPECT_EQ(gauge("serve.cost.backend.vgpu:0.queries"), 1.0);
  EXPECT_EQ(gauge("serve.cost.variant.Reg-ROC-Out/B256.queries"), 1.0);
}

TEST(CostLedger, JsonCarriesSchemaAndSections) {
  CostLedger ledger;
  ledger.record(sample_query());
  const json::Value doc = json::parse(ledger.json());
  EXPECT_EQ(doc.at("schema").string, "tbs.cost_ledger.v1");
  EXPECT_EQ(doc.at("total").at("queries").number, 1.0);
  EXPECT_TRUE(doc.find("by_backend") != nullptr);
  EXPECT_TRUE(doc.find("by_variant") != nullptr);
  EXPECT_TRUE(doc.find("by_dataset") != nullptr);
  ASSERT_EQ(doc.at("recent").array.size(), 1u);

  const std::string path =
      std::string(::testing::TempDir()) + "cost_ledger_test.json";
  ASSERT_TRUE(ledger.write_json(path));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(json::parse(ss.str()).at("schema").string, "tbs.cost_ledger.v1");
  std::remove(path.c_str());
}

// ---- collapsed stacks + time accounting ------------------------------

SpanRecord span(const char* name, double ts_us, double dur_us, int depth,
                std::uint32_t tid = 1, std::uint64_t span_id = 0,
                std::uint64_t parent_id = 0) {
  SpanRecord s;
  s.name = name;
  s.cat = "test";
  s.ts_us = ts_us;
  s.dur_us = dur_us;
  s.tid = tid;
  s.depth = depth;
  s.span_id = span_id;
  s.parent_id = parent_id;
  return s;
}

TEST(CollapsedStacks, SelfTimeFoldsWithFullAncestorPaths) {
  // execute [0, 1000] with launch [100, 400] and merge [500, 600] nested:
  // execute's self time is 1000 - 300 - 100 = 600.
  const std::vector<SpanRecord> spans = {
      span("execute", 0.0, 1000.0, 0),
      span("launch", 100.0, 300.0, 1),
      span("merge", 500.0, 100.0, 1),
  };
  const std::string folded = collapsed_stacks(spans);
  EXPECT_NE(folded.find("execute 600\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("execute;launch 300\n"), std::string::npos);
  EXPECT_NE(folded.find("execute;merge 100\n"), std::string::npos);
}

TEST(CollapsedStacks, SiblingsAfterAClosedSpanDoNotNestUnderIt) {
  // Two sequential depth-0 spans on one thread: the second must not be
  // folded under the first (stack entries pop once their span has closed).
  const std::vector<SpanRecord> spans = {
      span("first", 0.0, 100.0, 0),
      span("second", 200.0, 100.0, 0),
  };
  const std::string folded = collapsed_stacks(spans);
  EXPECT_NE(folded.find("first 100\n"), std::string::npos);
  EXPECT_NE(folded.find("second 100\n"), std::string::npos);
  EXPECT_EQ(folded.find("first;second"), std::string::npos) << folded;
}

TEST(CollapsedStacks, ExplicitParentIdsBeatTimingHeuristics) {
  // Cross-thread parentage: the child lives on tid 2 but names its parent
  // by span id — the path must follow the id, not the thread stack.
  std::vector<SpanRecord> spans = {
      span("root", 0.0, 1000.0, 0, /*tid=*/1, /*span_id=*/7),
      span("remote_child", 100.0, 200.0, 0, /*tid=*/2, /*span_id=*/8,
           /*parent_id=*/7),
  };
  const std::string folded = collapsed_stacks(spans);
  EXPECT_NE(folded.find("root;remote_child 200\n"), std::string::npos)
      << folded;
}

TEST(CollapsedStacks, SanitizesFrameNamesAndDropsZeroSelfLines) {
  const std::vector<SpanRecord> spans = {
      span("outer span;x", 0.0, 100.0, 0),
      span("inner", 0.0, 100.0, 1),  // consumes all of outer's time
  };
  const std::string folded = collapsed_stacks(spans);
  // Separator and space are sanitized; outer's zero self-time line is gone.
  EXPECT_NE(folded.find("outer_span_x;inner 100\n"), std::string::npos)
      << folded;
  EXPECT_EQ(folded.find("outer_span_x 0\n"), std::string::npos);
}

TEST(TimeAccounting, RowsCarryTotalSelfAndCount) {
  const std::vector<SpanRecord> spans = {
      span("execute", 0.0, 1000.0, 0),
      span("launch", 100.0, 300.0, 1),
      span("execute", 2000.0, 500.0, 0),
  };
  const std::vector<TimeAccountRow> rows = time_accounting(spans);
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by total time descending.
  EXPECT_EQ(rows[0].path, "execute");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].total_us, 1500.0);
  EXPECT_DOUBLE_EQ(rows[0].self_us, 1200.0);
  EXPECT_EQ(rows[1].path, "execute;launch");
  EXPECT_DOUBLE_EQ(rows[1].self_us, 300.0);
  const std::string text = time_accounting_text(rows);
  EXPECT_NE(text.find("execute"), std::string::npos);
}

TEST(CollapsedStacks, TracerOverloadAndFileExport) {
  Tracer tracer;
  tracer.enable();
  {
    Span outer(tracer, "outer", "test");
    Span inner(tracer, "inner", "test");
    // Give the inner span measurable self time — zero-µs lines are dropped
    // from the folded output by design.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  const std::string folded = collapsed_stacks(tracer);
  EXPECT_NE(folded.find("outer;inner"), std::string::npos) << folded;
  const std::string path =
      std::string(::testing::TempDir()) + "collapsed_test.txt";
  ASSERT_TRUE(write_collapsed(tracer, path));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_NE(ss.str().find("outer"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tbs::obs
