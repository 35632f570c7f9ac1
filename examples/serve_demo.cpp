// Serving demo: the tbs::serve QueryEngine answering concurrent 2-BS
// queries with coalescing, a result cache, and latency accounting.
//
// Four client threads hammer one engine with a small mix of SDH / PCF /
// kNN / join queries; the engine coalesces identical in-flight shapes,
// caches finished answers, and dispatches distinct work across a pool of
// simulated devices and streams. The final stats show how few queries
// ever reached a device.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/serve_demo
//   ./build/examples/serve_demo --chaos   # same workload under injected
//                                         # device faults: transients,
//                                         # stragglers, ECC trips, and one
//                                         # permanently dead device
//   ./build/examples/serve_demo --chaos silent   # *silent* corruption:
//                                         # staged-buffer and result bit
//                                         # flips that raise nothing; the
//                                         # invariant layer and the
//                                         # cross-backend audit must catch
//                                         # every one (audit rate defaults
//                                         # to 1.0 in this mode)
//   ./build/examples/serve_demo --audit-rate 0.1  # sample 10% of healthy
//                                         # answers for bit-exact re-
//                                         # execution on the CPU backend
//   ./build/examples/serve_demo --backend cpu    # CPU-only worker pool
//   ./build/examples/serve_demo --backend auto   # mixed vgpu+CPU pool;
//                                                # with --chaos, vgpu
//                                                # faults fail over to the
//                                                # CPU backend
//   ./build/examples/serve_demo --shards 4  # fan each SDH/PCF query over
//                                           # 4 shards as diagonal+cross
//                                           # tiles across the worker pool
//                                           # (DESIGN.md "Sharded
//                                           # execution"); answers are
//                                           # bit-identical to unsharded
// (TBS_BACKEND=cpu|vgpu|auto sets the default; the flag wins.)
//
// Under --chaos the demo also prints the resilience counters (faults,
// retries, breaker trips, degraded answers) — the quick-start for the
// fault model described in DESIGN.md "Fault model & resilience".
//
// Also writes, under --out <dir> (or TBS_ARTIFACT_DIR):
//   serve_demo_trace.json      — Chrome trace of every query's submit /
//                                queue wait / execute / kernel launch,
//                                with per-query trace ids and flow arrows
//                                (open at https://ui.perfetto.dev)
//   serve_demo_flight.json     — the flight-recorder ring of recent events
//   serve_demo_ops.jsonl       — the TelemetryBus ops feed (one metrics
//                                snapshot per line)
//   serve_demo_prometheus.txt  — Prometheus text exposition with
//                                latency-histogram exemplar trace ids
//
// More knobs:
//   --clients N   concurrent client threads (default 4)
//   --slo SECONDS arm the burn-rate SLO monitor at this latency objective;
//                 a breach dumps slo_breach_flight.json naming the
//                 breaching query's trace id
//   --sample M    keep 1-in-M healthy traces (eventful ones always kept)
//   --dash        render a live text dashboard while the clients run
//   --cost        answer "where did my query's time go?": print the cost
//                 ledger's phase/waste accounting and the top-down time
//                 table folded from the span tree, and write
//                 serve_demo_cost.json (schema tbs.cost_ledger.v1) +
//                 serve_demo_profile.collapsed (flamegraph input; feed to
//                 flamegraph.pl or speedscope)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/datagen.hpp"
#include "obs/cost.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

int main(int argc, char** argv) {
  using namespace tbs;

  bool chaos = false;
  bool silent_chaos = false;
  bool dash = false;
  bool cost = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
      if (i + 1 < argc && std::strcmp(argv[i + 1], "silent") == 0) {
        silent_chaos = true;
        ++i;
      }
    }
    if (std::strcmp(argv[i], "--dash") == 0) dash = true;
    if (std::strcmp(argv[i], "--cost") == 0) cost = true;
  }
  std::string backend = "vgpu";
  if (const char* env = std::getenv("TBS_BACKEND");
      env != nullptr && *env != '\0')
    backend = env;
  backend = obs::arg_value(argc, argv, "--backend", backend);
  if (backend != "vgpu" && backend != "cpu" && backend != "auto") {
    std::fprintf(stderr, "unknown --backend \"%s\" (vgpu|cpu|auto)\n",
                 backend.c_str());
    return 2;
  }
  const std::size_t shards = static_cast<std::size_t>(
      std::strtoul(obs::arg_value(argc, argv, "--shards", "0").c_str(),
                   nullptr, 10));
  const int n_clients = std::max(
      1, std::atoi(obs::arg_value(argc, argv, "--clients", "4").c_str()));
  const double slo_seconds =
      std::strtod(obs::arg_value(argc, argv, "--slo", "0").c_str(), nullptr);
  const std::size_t sample_of = std::max<std::size_t>(
      1, std::strtoul(obs::arg_value(argc, argv, "--sample", "1").c_str(),
                      nullptr, 10));
  // Silent chaos is invisible to the retry ladder's loud failures, so it
  // defaults the audit to every answer; a plain run defaults to 0 (off).
  const double audit_rate = std::strtod(
      obs::arg_value(argc, argv, "--audit-rate",
                     silent_chaos ? "1.0" : "0")
          .c_str(),
      nullptr);

  const PointsSoA gas = uniform_box(2000, 15.0f, /*seed=*/3);
  const int buckets = 64;
  const double width = gas.max_possible_distance() / buckets + 1e-4;

  obs::Tracer::global().enable();  // engine spans land in the global tracer

  serve::QueryEngine::Config cfg;
  cfg.devices = 2;
  cfg.streams_per_device = 2;
  if (backend == "cpu") {
    cfg.devices = 0;  // CPU-only pool: every query type still served
    cfg.cpu_workers = 2;
  } else if (backend == "auto") {
    cfg.cpu_workers = 2;  // mixed pool alongside the 2x2 vgpu workers
  }
  if (chaos && backend != "cpu") {
    // One flaky device, one dead device; the retry ladder, breaker, and
    // degraded baseline must still answer every query correctly.
    cfg.devices = 3;
    cfg.retry.max_attempts = 4;
    cfg.retry.max_dispatches = 16;
    cfg.breaker.failure_threshold = 3;
    cfg.breaker.cooldown_seconds = 0.05;
    cfg.flight.dump_on_breaker = false;  // the demo dumps at exit anyway
    cfg.faults.resize(3);
    cfg.faults[0].transient_rate = 0.05;  // 5% spurious launch failures
    cfg.faults[0].fail_first_n = 2;       // plus a deterministic opener
    cfg.faults[1].stall_rate = 0.05;      // stragglers
    cfg.faults[1].stall_seconds = 0.002;
    cfg.faults[1].corrupt_rate = 0.02;    // occasional ECC trips
    cfg.faults[2].device_lost = true;     // a permanently failing device
    // Heterogeneous pool under chaos: let vgpu workers whose retries run
    // out fail over to the shared CPU backend before degrading.
    if (backend == "auto") cfg.backend_failover = true;
    if (silent_chaos) {
      // Silent mode: nothing throws. One device flips result bits (the
      // Eq. 1 invariants catch those), one flips staged-buffer bits (only
      // the cross-backend audit can), one stays honest.
      cfg.faults.assign(3, vgpu::FaultPlan{});
      cfg.faults[0].silent_result_rate = 0.5;
      cfg.faults[1].silent_staged_rate = 0.5;
      cfg.breaker.failure_threshold = 0;  // quarantine comes from trip()
    }
  }
  cfg.audit_rate = audit_rate;
  const std::string out_dir = obs::artifact_dir(argc, argv);
  // The live ops plane: a background snapshotter feeding a JSONL history
  // and a Prometheus exposition (both validated by bench/ops_validate).
  cfg.telemetry.period_seconds = 0.1;
  cfg.telemetry.ops_feed_path =
      obs::artifact_path(out_dir, "serve_demo_ops.jsonl");
  cfg.telemetry.prometheus_path =
      obs::artifact_path(out_dir, "serve_demo_prometheus.txt");
  cfg.trace_sample_of = sample_of;  // keep 1-in-M healthy traces
  if (slo_seconds > 0.0) {
    cfg.slo.latency_seconds = slo_seconds;
    cfg.slo.window_seconds = 2.0;
    cfg.slo.min_samples = 5;
    cfg.flight.dump_path =
        obs::artifact_path(out_dir, "slo_breach_flight.json");
  }
  serve::QueryEngine engine(cfg);

  // N clients, each asking the same three questions a few times over —
  // the repetitive shape of a real analytics dashboard.
  serve::SubmitOptions opts;
  opts.shards = shards;  // 0/1 = ordinary path; >=2 fans tiles over the pool
  std::atomic<bool> done{false};
  std::thread dashboard;
  if (dash) {
    dashboard = std::thread([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const serve::EngineStats s = engine.stats();
        std::printf(
            "[dash] q=%zu inflight submitted=%llu done=%llu cache=%llu "
            "faults=%llu occ=%.0f%%\n",
            s.queue_depth,
            static_cast<unsigned long long>(s.counters.submitted),
            static_cast<unsigned long long>(s.counters.completed),
            static_cast<unsigned long long>(s.counters.cache_hits),
            static_cast<unsigned long long>(s.counters.faults),
            s.occupancy * 100.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < n_clients; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        auto h = engine.sdh(gas, width, buckets, opts);
        auto p = engine.pcf(gas, 2.0, opts);
        auto k = engine.knn(gas, 4);
        h.get();
        p.get();
        k.get();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true, std::memory_order_relaxed);
  if (dashboard.joinable()) dashboard.join();

  // One more query on the main thread: a cache hit resolves immediately.
  // (Copy out of .get() — the temporary future owns the shared state.)
  const auto sdh =
      std::get<kernels::SdhResult>(engine.sdh(gas, width, buckets).get());
  std::printf("SDH of %zu points: %llu pairs in %d buckets%s\n", gas.size(),
              static_cast<unsigned long long>(sdh.hist.total()), buckets,
              sdh.degraded ? " (degraded baseline)" : "");

  const serve::EngineStats stats = engine.stats();
  std::printf("\n%llu queries submitted by %d clients (+1 main)%s "
              "[backend=%s]:\n",
              static_cast<unsigned long long>(stats.counters.submitted),
              n_clients, chaos ? " under chaos" : "", backend.c_str());
  std::printf("  executed on a device : %llu\n",
              static_cast<unsigned long long>(stats.counters.executed));
  std::printf("  served from the cache: %llu\n",
              static_cast<unsigned long long>(stats.counters.cache_hits));
  std::printf("  coalesced in flight  : %llu\n",
              static_cast<unsigned long long>(stats.counters.coalesced));
  std::printf("  kernel launches      : %llu across %zu workers\n",
              static_cast<unsigned long long>(stats.kernel_launches),
              stats.workers);
  std::printf("  latency p50 / p99    : %.3f ms / %.3f ms\n",
              stats.latency.p50 * 1e3, stats.latency.p99 * 1e3);
  std::printf("  throughput           : %.0f answers/sec\n",
              stats.throughput_qps);
  if (shards >= 2) {
    std::printf("  sharded queries      : %llu (%llu tiles over K=%zu "
                "shards)\n",
                static_cast<unsigned long long>(stats.counters.shard_queries),
                static_cast<unsigned long long>(stats.counters.shard_tiles),
                shards);
    if (stats.counters.shard_lanes_lost > 0)
      std::printf("  shard failovers      : %llu tiles re-executed after "
                  "%llu lane losses\n",
                  static_cast<unsigned long long>(
                      stats.counters.shard_tiles_failed_over),
                  static_cast<unsigned long long>(
                      stats.counters.shard_lanes_lost));
  }
  if (chaos) {
    std::printf("  device faults        : %llu (%llu retries)\n",
                static_cast<unsigned long long>(stats.counters.faults),
                static_cast<unsigned long long>(stats.counters.retries));
    std::printf("  breaker trips        : %llu",
                static_cast<unsigned long long>(stats.counters.breaker_opens));
    for (std::size_t w = 0; w < stats.workers; ++w)
      std::printf("%s worker%zu=%s", w == 0 ? " —" : ",", w,
                  serve::CircuitBreaker::to_string(engine.breaker(w).state()));
    std::printf("\n");
    std::printf("  degraded answers     : %llu (baseline variant, uncached)\n",
                static_cast<unsigned long long>(stats.counters.degraded));
    if (cfg.backend_failover)
      std::printf("  cross-backend failovers: %llu (served on cpu)\n",
                  static_cast<unsigned long long>(stats.counters.failovers));
    std::printf("  requeued / abandoned : %llu / %llu\n",
                static_cast<unsigned long long>(stats.counters.requeued),
                static_cast<unsigned long long>(stats.counters.abandoned));
  }
  if (chaos || audit_rate > 0.0) {
    std::printf("  integrity            : %llu invariant violations, "
                "%llu/%llu audits mismatched\n",
                static_cast<unsigned long long>(
                    stats.counters.integrity_violations),
                static_cast<unsigned long long>(
                    stats.counters.audit_mismatches),
                static_cast<unsigned long long>(stats.counters.audits));
    if (stats.counters.quarantines > 0)
      std::printf("  quarantines          : %llu worker(s) tripped, "
                  "%llu cache entries purged\n",
                  static_cast<unsigned long long>(stats.counters.quarantines),
                  static_cast<unsigned long long>(
                      stats.counters.cache_invalidated));
  }

  if (slo_seconds > 0.0) {
    const obs::SloMonitor::Status ss = engine.slo().status();
    std::printf("  slo (%.1f ms object.) : %llu breach transitions, "
                "burn latency=%.2f error=%.2f\n",
                slo_seconds * 1e3,
                static_cast<unsigned long long>(engine.slo().breaches()),
                ss.latency_burn_rate, ss.error_burn_rate);
  }

  const std::string trace_path =
      obs::artifact_path(out_dir, "serve_demo_trace.json");
  obs::Tracer::global().write_chrome_trace(trace_path);
  std::printf("  trace                : %s (%zu spans; "
              "open at https://ui.perfetto.dev)\n",
              trace_path.c_str(), obs::Tracer::global().size());
  const std::string flight_path =
      obs::artifact_path(out_dir, "serve_demo_flight.json");
  if (engine.dump_flight(flight_path))
    std::printf("  flight recorder      : %s (%llu events)\n",
                flight_path.c_str(),
                static_cast<unsigned long long>(
                    engine.flight_recorder().total_recorded()));
  std::printf("  ops feed             : %s (%llu ticks)\n",
              cfg.telemetry.ops_feed_path.c_str(),
              static_cast<unsigned long long>(
                  engine.telemetry() ? engine.telemetry()->ticks() : 0));
  std::printf("  prometheus           : %s\n",
              cfg.telemetry.prometheus_path.c_str());

  if (cost) {
    // Where did my query's time go? The ledger's phase decomposition over
    // every query this run served, waste itemized separately.
    const obs::CostLedger& ledger = engine.cost_ledger();
    const obs::CostLedger::Aggregate total = ledger.total();
    std::printf("\ncost ledger (%llu queries, %llu cache hits):\n",
                static_cast<unsigned long long>(total.queries),
                static_cast<unsigned long long>(total.cache_hits));
    for (std::size_t p = 0; p < obs::kCostPhases; ++p)
      std::printf("  %-10s %10.3f ms\n",
                  std::string(
                      obs::to_string(static_cast<obs::CostPhase>(p)))
                      .c_str(),
                  total.phase_seconds[p] * 1e3);
    std::printf("  %-10s %10.3f ms (%llu events — retries, backoff, "
                "lost lanes)\n",
                "waste", total.waste_seconds * 1e3,
                static_cast<unsigned long long>(total.waste_events));
    for (const auto& [name, agg] : ledger.by_backend())
      std::printf("  backend %-12s %llu queries, %.3f ms attributed\n",
                  name.c_str(),
                  static_cast<unsigned long long>(agg.queries),
                  agg.total_seconds * 1e3);

    std::printf("\ntop-down time accounting (span tree):\n%s",
                obs::time_accounting_text(
                    obs::time_accounting(obs::Tracer::global().snapshot()),
                    12)
                    .c_str());

    const std::string cost_path =
        obs::artifact_path(out_dir, "serve_demo_cost.json");
    if (ledger.write_json(cost_path))
      std::printf("  cost ledger          : %s\n", cost_path.c_str());
    const std::string collapsed_path =
        obs::artifact_path(out_dir, "serve_demo_profile.collapsed");
    if (obs::write_collapsed(obs::Tracer::global(), collapsed_path))
      std::printf("  collapsed profile    : %s (flamegraph input)\n",
                  collapsed_path.c_str());
  }

  // The exit check. Fault-free: 37 submissions, 3 distinct shapes — dedup
  // must collapse them to at most 3 executions. Under chaos, degraded
  // answers are deliberately not cached, so shapes can re-execute; the
  // check becomes "every query was answered and none was dropped".
  bool ok;
  if (silent_chaos) {
    // Silent corruption raises nothing on its own: the run only counts as
    // defended if the integrity layers actually fired.
    const std::uint64_t detections =
        stats.counters.integrity_violations + stats.counters.audit_mismatches;
    ok = stats.counters.failed == 0 && stats.counters.abandoned == 0 &&
         stats.counters.completed > 0 && detections > 0;
    std::printf("\n%s: %llu submissions answered under silent chaos "
                "(%llu corruptions detected)\n",
                ok ? "OK" : "UNEXPECTED",
                static_cast<unsigned long long>(stats.counters.submitted),
                static_cast<unsigned long long>(detections));
  } else if (chaos) {
    ok = stats.counters.failed == 0 && stats.counters.abandoned == 0 &&
         stats.counters.completed > 0;
    // Device faults reach the ladder; a sharded query absorbs lost lanes
    // and re-routes their tiles without one, so count those too.
    const std::uint64_t absorbed = stats.counters.faults +
                                   stats.counters.shard_lanes_lost +
                                   stats.counters.shard_tiles_failed_over;
    std::printf("\n%s: %llu submissions all answered under chaos "
                "(%llu faults absorbed)\n",
                ok ? "OK" : "UNEXPECTED",
                static_cast<unsigned long long>(stats.counters.submitted),
                static_cast<unsigned long long>(absorbed));
  } else {
    ok = stats.counters.executed <= 3;
    std::printf("\n%s: %llu submissions collapsed to %llu executions\n",
                ok ? "OK" : "UNEXPECTED",
                static_cast<unsigned long long>(stats.counters.submitted),
                static_cast<unsigned long long>(stats.counters.executed));
  }
  return ok ? 0 : 1;
}
