// integrity_chaos — the end-to-end silent-corruption defense bench.
//
// A chaos matrix drives a QueryEngine with every *silent* fault kind the
// injector knows (staged-buffer bit flips, result-payload bit flips) plus
// the chronic-straggler plan, and compares every delivered answer bit-
// exactly against the CPU golden (core::TwoBodyFramework). The contract
// under test is absolute: with the defense on, **zero** corrupted results
// escape to a client — invariants catch what breaks Eq. 1 conservation,
// sampled cross-backend audits catch what conserves counts over wrong
// points, and hedged stragglers still deliver the exact answer.
//
// A second section prices the defense: the per-query invariant check and
// the submit-time input checksum are timed directly and expressed as a
// fraction of the clean p50 query wall time. The hard check requires the
// always-on layers to cost under 1% of p50; the fraction also rides
// BENCH_integrity.json gated lower-is-better.
//
// Artifacts (--out <dir> / TBS_ARTIFACT_DIR; default "."):
//   BENCH_integrity.json    — the shared BenchReport schema
//   integrity_report.json   — schema tbs.integrity.v1: the per-case
//                             injected/caught/escaped ledger CI validates
//                             with `ops_validate --integrity`.
//
// The CI negative path runs this bench with TBS_DISABLE_INTEGRITY=1: the
// same chaos then *does* deliver corrupt answers, the escapes check fails,
// and the bench exits nonzero — proof the defense, not luck, is what keeps
// the matrix green.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/datagen.hpp"
#include "common/fingerprint.hpp"
#include "common/table.hpp"
#include "core/framework.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "serve/engine.hpp"
#include "serve/integrity.hpp"

namespace {

using tbs::PointsSoA;
namespace obs = tbs::obs;
namespace serve = tbs::serve;

constexpr std::size_t kN = 600;  // < plan threshold: every query launches
constexpr int kBuckets = 24;

double width_for(const PointsSoA& pts) {
  return pts.max_possible_distance() / kBuckets + 1e-4;
}

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One chaos case: a fault plan, the engine knobs that defend against it,
/// and the detector expected to fire.
struct Case {
  std::string name;
  std::string detector;  ///< "invariant", "audit", "hedge", "none"
  tbs::vgpu::FaultPlan plan;
  bool backend_failover = false;
  double audit_rate = 0.0;
  double hedge_after = 0.0;
  std::size_t shards = 1;
  std::size_t devices = 1;
};

struct CaseResult {
  std::string name;
  std::string detector;
  std::size_t queries = 0;
  std::uint64_t injected = 0;  ///< corruptions the injector reports
  std::uint64_t caught = 0;    ///< invariant violations + audit mismatches
  std::uint64_t escapes = 0;   ///< delivered answers != CPU golden
  std::uint64_t hedges = 0;
};

/// Drive `queries` mixed SDH/PCF submissions through an engine configured
/// for the case and compare every delivered payload against the golden.
CaseResult run_case(const Case& c, std::size_t queries) {
  tbs::core::TwoBodyFramework fw;
  serve::QueryEngine::Config cfg;
  cfg.devices = c.devices;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;  // every submission must execute, none may hide
  cfg.backend_failover = c.backend_failover;
  cfg.audit_rate = c.audit_rate;
  cfg.shard_hedge_after_seconds = c.hedge_after;
  cfg.faults.resize(1);
  cfg.faults[0] = c.plan;  // device 0 misbehaves; any others stay clean
  serve::QueryEngine engine(cfg);

  CaseResult out;
  out.name = c.name;
  out.detector = c.detector;
  for (std::uint64_t seed = 0; seed < queries; ++seed) {
    const PointsSoA pts = tbs::uniform_box(kN, 10.0f, 700 + seed);
    const double width = width_for(pts);
    serve::SubmitOptions opts;
    opts.shards = c.shards;
    serve::QueryResult got, want;
    if (seed % 2 == 0) {
      got = engine.sdh(pts, width, kBuckets, opts).get();
      want = fw.sdh(pts, width, kBuckets);
    } else {
      got = engine.pcf(pts, width * 4.0, opts).get();
      want = fw.pcf(pts, width * 4.0);
    }
    ++out.queries;
    if (!serve::results_bit_identical(got, want)) ++out.escapes;
  }
  const serve::EngineStats stats = engine.stats();
  out.caught =
      stats.counters.integrity_violations + stats.counters.audit_mismatches;
  out.hedges = stats.counters.shard_tiles_hedged;
  out.injected = engine.fault_stats(0).silent();
  return out;
}

/// Price the always-on layers directly: the Eq. 1 invariant check on a
/// finished SDH result and the submit-time input checksum, each amortized
/// over enough repetitions for a stable per-call figure.
struct Overhead {
  double p50_query_seconds = 0.0;
  double invariant_seconds = 0.0;  ///< one verify_result call
  double checksum_seconds = 0.0;   ///< one x/y/z input checksum
  [[nodiscard]] double frac() const {
    return p50_query_seconds > 0.0
               ? (invariant_seconds + checksum_seconds) / p50_query_seconds
               : 1.0;
  }
};

Overhead measure_overhead() {
  Overhead out;
  tbs::core::TwoBodyFramework fw;
  const PointsSoA pts = tbs::uniform_box(kN, 10.0f, 900);
  const double width = width_for(pts);
  const serve::Query q = serve::SdhQuery{width, kBuckets};
  const serve::QueryResult r = fw.sdh(pts, width, kBuckets);

  // Clean engine, defense on (the default): p50 of 21 query walls.
  serve::QueryEngine::Config cfg;
  cfg.devices = 1;
  cfg.streams_per_device = 1;
  cfg.cache_capacity = 0;
  serve::QueryEngine engine(cfg);
  std::vector<double> walls;
  for (std::uint64_t seed = 0; seed < 21; ++seed) {
    const PointsSoA d = tbs::uniform_box(kN, 10.0f, 950 + seed);
    const auto t0 = std::chrono::steady_clock::now();
    (void)engine.sdh(d, width_for(d), kBuckets).get();
    walls.push_back(now_minus(t0));
  }
  std::sort(walls.begin(), walls.end());
  out.p50_query_seconds = walls[walls.size() / 2];

  constexpr int kReps = 20000;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i)
      serve::verify_result(q, pts, r, "bench");
    out.invariant_seconds = now_minus(t0) / kReps;
  }
  {
    constexpr int kSumReps = 2000;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (int i = 0; i < kSumReps; ++i) {
      sink ^= tbs::checksum(pts.x());
      sink ^= tbs::checksum(pts.y());
      sink ^= tbs::checksum(pts.z());
    }
    out.checksum_seconds = now_minus(t0) / kSumReps;
    if (sink == 0xDEAD) std::printf(" ");  // keep the loop observable
  }
  return out;
}

std::string integrity_json(const std::vector<CaseResult>& cases,
                           const Overhead& oh) {
  namespace json = tbs::obs::json;
  std::uint64_t queries = 0, injected = 0, caught = 0, escapes = 0;
  std::string body;
  for (const CaseResult& c : cases) {
    queries += c.queries;
    injected += c.injected;
    caught += c.caught;
    escapes += c.escapes;
    if (!body.empty()) body += ",\n";
    body += "  {\"name\": \"" + json::escape(c.name) +
            "\", \"detector\": \"" + json::escape(c.detector) + "\"" +
            ", \"queries\": " + std::to_string(c.queries) +
            ", \"injected\": " + std::to_string(c.injected) +
            ", \"caught\": " + std::to_string(c.caught) +
            ", \"escapes\": " + std::to_string(c.escapes) +
            ", \"hedges\": " + std::to_string(c.hedges) + "}";
  }
  return "{\n \"schema\": \"tbs.integrity.v1\",\n \"cases\": [\n" + body +
         "\n ],\n \"totals\": {\"queries\": " + std::to_string(queries) +
         ", \"injected\": " + std::to_string(injected) +
         ", \"caught\": " + std::to_string(caught) +
         ", \"escapes\": " + std::to_string(escapes) +
         "},\n \"overhead\": {\"p50_query_seconds\": " +
         json::number(oh.p50_query_seconds) +
         ", \"invariant_check_seconds\": " + json::number(oh.invariant_seconds) +
         ", \"input_checksum_seconds\": " + json::number(oh.checksum_seconds) +
         ", \"frac_of_p50\": " + json::number(oh.frac()) + "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;

  const std::string out_dir = obs::artifact_dir(argc, argv);
  std::printf("=== Silent-corruption chaos matrix ===\n");
  std::printf("integrity checks: %s\n\n",
              serve::integrity_enabled() ? "ON" : "OFF (negative mode)");

  std::vector<Case> cases;
  {
    Case c;  // result-payload flips: Eq. 1 invariants + ladder failover
    c.name = "silent_result";
    c.detector = "invariant";
    c.plan.silent_result_rate = 1.0;
    c.backend_failover = true;
    c.audit_rate = 1.0;  // PCF flips conserve counts; the audit covers them
    cases.push_back(c);
  }
  {
    Case c;  // staged-buffer flips: only the cross-backend audit can see
    c.name = "silent_staged";
    c.detector = "audit";
    c.plan.silent_staged_rate = 1.0;
    c.audit_rate = 1.0;
    cases.push_back(c);
  }
  {
    Case c;  // chronic straggler: hedged tiles, exact merged answer
    c.name = "straggler_hedge";
    c.detector = "hedge";
    c.plan.stall_rate = 1.0;
    c.plan.stall_seconds = 0.25;
    c.hedge_after = 0.02;
    c.shards = 2;
    c.devices = 2;
    cases.push_back(c);
  }
  {
    Case c;  // clean control: audits everywhere, nothing to catch
    c.name = "clean_control";
    c.detector = "none";
    c.audit_rate = 1.0;
    cases.push_back(c);
  }

  std::vector<CaseResult> results;
  for (const Case& c : cases)
    results.push_back(run_case(c, c.name == "straggler_hedge" ? 4u : 8u));

  TextTable t({"case", "detector", "queries", "injected", "caught",
               "escapes", "hedges"});
  for (const CaseResult& r : results)
    t.add_row({r.name, r.detector, std::to_string(r.queries),
               std::to_string(r.injected), std::to_string(r.caught),
               std::to_string(r.escapes), std::to_string(r.hedges)});
  t.print(std::cout);

  std::printf("\n=== Defense overhead ===\n");
  const Overhead oh = measure_overhead();
  std::printf(
      "p50 clean query %s; invariant check %s + input checksum %s per "
      "query = %.4f%% of p50\n",
      fmt_time(oh.p50_query_seconds).c_str(),
      fmt_time(oh.invariant_seconds).c_str(),
      fmt_time(oh.checksum_seconds).c_str(), oh.frac() * 100.0);

  std::uint64_t escapes = 0, caught = 0, injected = 0, queries = 0;
  for (const CaseResult& r : results) {
    escapes += r.escapes;
    caught += r.caught;
    injected += r.injected;
    queries += r.queries;
  }

  obs::BenchReport report("integrity");
  {
    using obs::Better;
    // Deterministic by construction (seeded injector, simulated device):
    // gated. A detection-rate drop or any escape is a correctness
    // regression, not noise.
    obs::BenchEntry& e = report.entry("chaos_matrix", double(kN), "sim");
    e.metric("escapes", double(escapes), Better::Lower, /*gate=*/true);
    e.metric("caught", double(caught), Better::Higher, /*gate=*/true);
    e.metric("injected", double(injected), Better::Higher, /*gate=*/false);
    // Wall-clock, but a *ratio* on one host — gated with a wide baseline
    // tolerance so a 10x overhead blow-up fails while scheduler noise
    // passes.
    obs::BenchEntry& o = report.entry("overhead", double(kN), "wall");
    o.metric("frac_of_p50", oh.frac(), Better::Lower, /*gate=*/true);
    o.metric("invariant_check_seconds", oh.invariant_seconds, Better::Lower,
             /*gate=*/false);
    o.metric("p50_query_seconds", oh.p50_query_seconds, Better::Lower,
             /*gate=*/false);
  }
  write_report(report, out_dir);

  const std::string ipath = obs::artifact_path(out_dir, "integrity_report.json");
  {
    std::ofstream os(ipath);
    if (os) {
      os << integrity_json(results, oh);
      std::printf("wrote %s\n", ipath.c_str());
    } else {
      std::printf("cannot write %s\n", ipath.c_str());
    }
  }

  std::printf("\nshape checks:\n");
  ShapeChecks checks;
  checks.expect(queries >= 20, "chaos matrix ran a real workload");
  checks.expect(escapes == 0,
                "zero corrupted results escaped to a client (" +
                    std::to_string(escapes) + " escaped)");
  for (const CaseResult& r : results) {
    if (r.detector == "invariant" || r.detector == "audit") {
      checks.expect(r.injected >= r.queries,
                    r.name + ": the injector corrupted every launch");
      checks.expect(r.caught >= r.queries,
                    r.name + ": every corruption was caught (" +
                        std::to_string(r.caught) + "/" +
                        std::to_string(r.queries) + ")");
    }
    if (r.detector == "hedge")
      checks.expect(r.hedges >= r.queries,
                    r.name + ": stalled tiles were hedged");
    if (r.detector == "none") {
      checks.expect(r.caught == 0, r.name + ": no false positives");
      checks.expect(r.injected == 0, r.name + ": control stayed clean");
    }
  }
  checks.expect(oh.frac() < 0.01,
                "always-on defense costs <1% of p50 (" +
                    std::to_string(oh.frac() * 100.0) + "%)");
  return checks.finish();
}
