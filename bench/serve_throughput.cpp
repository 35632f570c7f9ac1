// Serving throughput: queries/sec and tail latency of tbs::serve under
// concurrent clients, with the result cache on and off.
//
// Unlike the paper-figure benches (which model one kernel at scale), this
// measures the system layer above the kernels: admission, coalescing,
// caching, and the stream-pool dispatch. Each configuration spins up a
// fresh QueryEngine (2 devices x 2 streams), hammers it with a mixed
// SDH/PCF/kNN/join workload from C client threads, and records
// queries/sec, p50/p99 latency, and how many jobs actually reached a
// device. Results go to stdout as a table and, in the shared BenchReport
// schema, to BENCH_serve_throughput.json. All artifacts land in the
// directory given by `--out <dir>` (or TBS_ARTIFACT_DIR; default "."):
//   trace.json           — Chrome trace of the final (8-client, cache-off)
//                          run; open at https://ui.perfetto.dev
//   metrics.json         — that run's engine MetricsRegistry snapshot
//   drift.json           — model-vs-measured drift report for every
//                          plannable kernel (CI gates on
//                          max_rel_error <= `--drift-tol`, default 0.05)
//   flight_recorder.json — the traced run's per-query event ring
//
// Every serve-layer number here is wall-clock on a shared host, so the
// BenchReport metrics carry gate=false: they ride the perf ledger for
// trend analysis but never fail the regression gate.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

namespace {

using tbs::PointsSoA;
namespace serve = tbs::serve;

struct Shape {
  serve::Query query;
  const PointsSoA* pts;
};

struct RunResult {
  std::size_t clients = 0;
  bool cache_on = false;
  std::uint64_t queries = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  serve::EngineStats stats;
  std::string metrics_json;  ///< engine registry snapshot at run end
};

RunResult run_config(const std::vector<Shape>& shapes, std::size_t clients,
                     bool cache_on, int rounds, const std::string& backend,
                     bool traced = false, const std::string& flight_path = "") {
  if (traced) {
    tbs::obs::Tracer::global().clear();
    tbs::obs::Tracer::global().enable();
  }
  serve::QueryEngine::Config cfg;
  // --backend picks the worker pool's substrate mix: the historical
  // vgpu-only pool, a CPU-only pool (devices=0), or a heterogeneous pool
  // where which substrate answers a query is a scheduling accident.
  if (backend == "cpu") {
    cfg.devices = 0;
    cfg.cpu_workers = 4;
  } else if (backend == "auto") {
    cfg.devices = 2;
    cfg.streams_per_device = 2;
    cfg.cpu_workers = 2;
  } else {
    cfg.devices = 2;
    cfg.streams_per_device = 2;
  }
  cfg.queue_capacity = 64;
  cfg.cache_capacity = cache_on ? 128 : 0;
  cfg.flight_capacity = 1024;
  serve::QueryEngine engine(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      std::vector<serve::QueryEngine::ResultFuture> futs;
      futs.reserve(shapes.size());
      // Drain between rounds: with the cache off, round r+1 must hit the
      // devices again rather than coalescing onto round r's in-flight
      // jobs — that is the cache-on/off contrast this bench measures.
      for (int r = 0; r < rounds; ++r) {
        futs.clear();
        for (std::size_t i = 0; i < shapes.size(); ++i) {
          // Stagger the order per client so shapes collide in flight.
          const Shape& s = shapes[(i + c * 3) % shapes.size()];
          futs.push_back(engine.submit(s.query, *s.pts));
        }
        for (auto& f : futs) f.get();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RunResult out;
  out.clients = clients;
  out.cache_on = cache_on;
  out.queries = static_cast<std::uint64_t>(clients) * rounds * shapes.size();
  out.wall_seconds = wall;
  out.qps = wall > 0.0 ? static_cast<double>(out.queries) / wall : 0.0;
  out.stats = engine.stats();
  out.metrics_json = engine.metrics_json();
  if (!flight_path.empty() && engine.dump_flight(flight_path))
    std::printf("wrote %s (%llu events recorded, %llu dropped)\n",
                flight_path.c_str(),
                static_cast<unsigned long long>(
                    engine.flight_recorder().total_recorded()),
                static_cast<unsigned long long>(
                    engine.flight_recorder().dropped()));
  if (traced) tbs::obs::Tracer::global().disable();
  return out;
}

/// Serve runs are wall-clock: everything rides the ledger ungated. The
/// entry's n carries the client count; cache on/off is the kernel label.
void add_runs(tbs::obs::BenchReport& report,
              const std::vector<RunResult>& runs) {
  using tbs::obs::Better;
  for (const RunResult& r : runs) {
    tbs::obs::BenchEntry& e =
        report.entry(r.cache_on ? "cache_on" : "cache_off",
                     static_cast<double>(r.clients), "wall");
    const serve::EngineCounters& c = r.stats.counters;
    e.metric("qps", r.qps, Better::Higher, /*gate=*/false);
    e.metric("p50_seconds", r.stats.latency.p50, Better::Lower,
             /*gate=*/false);
    e.metric("p99_seconds", r.stats.latency.p99, Better::Lower,
             /*gate=*/false);
    e.metric("executed", static_cast<double>(c.executed), Better::Lower,
             /*gate=*/false);
    e.metric("cache_hits", static_cast<double>(c.cache_hits), Better::Higher,
             /*gate=*/false);
    e.metric("coalesced", static_cast<double>(c.coalesced), Better::Higher,
             /*gate=*/false);
    e.metric("kernel_launches", static_cast<double>(r.stats.kernel_launches),
             Better::Lower, /*gate=*/false);
    e.metric("occupancy", r.stats.occupancy, Better::Higher, /*gate=*/false);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;

  const std::string out_dir = obs::artifact_dir(argc, argv);
  const std::string trace_path = obs::artifact_path(out_dir, "trace.json");
  const std::string metrics_path =
      obs::artifact_path(out_dir, "metrics.json");
  const std::string drift_path = obs::artifact_path(out_dir, "drift.json");
  const std::string flight_path =
      obs::artifact_path(out_dir, "flight_recorder.json");
  const double drift_tol =
      std::stod(obs::arg_value(argc, argv, "--drift-tol", "0.05"));
  const std::string backend = backend_choice(argc, argv);
  std::printf("=== Serving throughput: QueryEngine, backend=%s ===\n\n",
              backend.c_str());

  // A mixed workload over two datasets — every 2-BS query type the engine
  // serves, with enough distinct shapes that coalescing and caching both
  // have work to do.
  const PointsSoA box_a = uniform_box(400, 10.0f, 11);
  const PointsSoA box_b = uniform_box(400, 12.0f, 23);
  const double width_a = box_a.max_possible_distance() / 64 + 1e-4;
  const double width_b = box_b.max_possible_distance() / 128 + 1e-4;
  const std::vector<Shape> shapes = {
      {serve::SdhQuery{width_a, 64}, &box_a},
      {serve::SdhQuery{width_b, 128}, &box_b},
      {serve::PcfQuery{1.0}, &box_a},
      {serve::PcfQuery{1.5}, &box_b},
      {serve::PcfQuery{2.0}, &box_a},
      {serve::KnnQuery{4}, &box_a},
      {serve::KnnQuery{8}, &box_b},
      {serve::JoinQuery{1.2, kernels::JoinVariant::TwoPhase}, &box_b},
      {serve::JoinQuery{1.2, kernels::JoinVariant::GlobalCursor}, &box_a},
      {serve::SdhQuery{width_a, 32}, &box_b},
  };
  const int rounds = 4;

  std::vector<RunResult> runs;
  TextTable t({"clients", "cache", "queries", "qps", "p50", "p99",
               "executed", "hits", "coalesced"});
  for (const bool cache_on : {true, false}) {
    for (const std::size_t clients : {1u, 2u, 4u, 8u}) {
      // Trace the last configuration only, so trace.json tells one
      // engine's story (the busiest one: 8 clients, cache off).
      const bool traced = !cache_on && clients == 8;
      const RunResult r = run_config(shapes, clients, cache_on, rounds,
                                     backend, traced,
                                     traced ? flight_path : "");
      runs.push_back(r);
      t.add_row({std::to_string(r.clients), cache_on ? "on" : "off",
                 std::to_string(r.queries), TextTable::num(r.qps, 0),
                 fmt_time(r.stats.latency.p50), fmt_time(r.stats.latency.p99),
                 std::to_string(r.stats.counters.executed),
                 std::to_string(r.stats.counters.cache_hits),
                 std::to_string(r.stats.counters.coalesced)});
    }
  }
  t.print(std::cout);

  obs::BenchReport report("serve_throughput");
  report.meta().backend = backend;
  add_runs(report, runs);
  write_report(report, out_dir);

  // Observability artifacts: the traced run's timeline + metrics snapshot.
  obs::Tracer::global().write_chrome_trace(trace_path);
  std::printf("wrote %s (%zu spans; open at https://ui.perfetto.dev)\n",
              trace_path.c_str(), obs::Tracer::global().size());
  {
    std::ofstream os(metrics_path);
    os << runs.back().metrics_json;
  }
  std::printf("wrote %s\n", metrics_path.c_str());

  // Drift report for every variant the planner may serve: predicted vs
  // measured access counters must agree within tolerance. On the CPU
  // substrate there are no simulated counters to model, so the sweep
  // records every variant as skipped and the gate passes cleanly.
  std::printf("\ndrift report (plannable variants, backend=%s):\n",
              backend.c_str());
  vgpu::Device drift_dev;
  obs::DriftOptions drift_opt;
  drift_opt.tolerance = drift_tol;
  obs::DriftReport drift;
  if (backend == "cpu") {
    tbs::backend::CpuBackend cpu_be;
    drift = obs::check_drift(cpu_be, drift_opt);
  } else {
    tbs::backend::VgpuBackend vgpu_be(drift_dev);
    drift = obs::check_drift(vgpu_be, drift_opt);
  }
  TextTable dt({"variant", "counter", "predicted", "measured", "rel_err"});
  for (const obs::DriftRow& row : drift.rows)
    dt.add_row({row.variant, row.counter, TextTable::num(row.predicted, 0),
                TextTable::num(row.measured, 0),
                TextTable::num(row.rel_error * 100.0, 3) + "%"});
  dt.print(std::cout);
  for (const std::string& name : drift.skipped)
    std::printf("  (skipped %s: no simulated counters on %s)\n", name.c_str(),
                drift.backend.c_str());
  drift.write_json(drift_path);
  std::printf("wrote %s (max_rel_error=%.4f, tolerance=%.2f)\n",
              drift_path.c_str(), drift.max_rel_error(), drift.tolerance);

  std::printf("\nshape checks:\n");
  ShapeChecks checks;
  checks.expect(backend == "cpu" ? !drift.skipped.empty()
                                 : !drift.rows.empty(),
                "drift sweep covered the plannable variants");
  checks.expect(drift.within_tolerance(),
                "model-vs-measured drift within tolerance (max " +
                    std::to_string(drift.max_rel_error()) + " <= " +
                    std::to_string(drift.tolerance) + ")");
  checks.expect(obs::Tracer::global().size() > 0,
                "traced run recorded spans");
  for (const RunResult& r : runs) {
    checks.expect(r.stats.counters.failed == 0 &&
                      r.stats.counters.rejected == 0,
                  "no failures or rejections (clients=" +
                      std::to_string(r.clients) +
                      ", cache=" + (r.cache_on ? "on" : "off") + ")");
    checks.expect(r.qps > 0.0, "positive throughput");
    checks.expect(r.stats.latency.p99 >= r.stats.latency.p50,
                  "p99 >= p50");
  }
  // With the cache on, repeated shapes must collapse: far fewer jobs reach
  // a device than with the cache off at the same client count.
  for (std::size_t i = 0; i < 4; ++i) {
    const RunResult& on = runs[i];
    const RunResult& off = runs[i + 4];
    checks.expect(on.stats.counters.executed < off.stats.counters.executed,
                  "cache cuts device executions (clients=" +
                      std::to_string(on.clients) + ": " +
                      std::to_string(on.stats.counters.executed) + " < " +
                      std::to_string(off.stats.counters.executed) + ")");
  }
  // Cache + coalescing bound the work: at most one execution per distinct
  // shape when the cache is on.
  for (std::size_t i = 0; i < 4; ++i)
    checks.expect(runs[i].stats.counters.executed <= shapes.size(),
                  "cache-on executions bounded by distinct shapes");
  return checks.finish();
}
