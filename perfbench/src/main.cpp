// perfbench — the repo benchmark.
//
//   perfbench --workload <vgpu-mixed|cpu-radius|hot-audited> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs one seeded closed-loop workload against serve::QueryEngine for
// --seconds, checks every answer against a cpubase reference computed
// after the timed phase, and prints a human-readable report followed by
// one line `RESULT {...}` holding the raw metric values. With --trace 0
// the metrics are the end-to-end ones, measured untraced; with --trace 1 a
// separate traced run walks every answered query through the layers below
// serve and reports per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "measure.hpp"
#include "perfmodel/timemodel.hpp"
#include "serve/engine.hpp"
#include "vgpu/stream.hpp"
#include "walk.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace serve = tbs::serve;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Peak resident set of this process, in bytes.
double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

/// Current resident set of this process, in bytes.
double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// One timed submission, as its client saw it.
struct Record {
  bool done = false;
  bool ok = false;
  double submit_seconds = 0.0;   ///< the submit() call itself
  double latency_seconds = 0.0;  ///< submit -> answer
  double walked_seconds = 0.0;   ///< traced run: layers walked below serve
  serve::QueryResult result;
  std::shared_ptr<tbs::obs::QueryCost> cost;
};

/// Engine counters summed over the timed rounds.
struct Counts {
  double submitted = 0, cache_hits = 0, coalesced = 0, audits = 0, rejected = 0;
  std::uint64_t plan_hits = 0, plan_misses = 0;
};

/// Everything the timed rounds of one run measured.
struct Phase {
  std::vector<Record> records;         ///< indexed like Schedule::items
  std::size_t next_item = 0;           ///< first item the next round sends
  std::size_t answered_in_window = 0;  ///< answers before a round's deadline
  double window_seconds = 0.0;         ///< summed round lengths
  std::vector<double> rss_samples;     ///< resident bytes, every 20 ms
  Counts counts;
  double occupancy = 0.0;  ///< EngineStats::occupancy of the last round
};

/// Engine construction plus warm-up: the priming queries make the CPU
/// backends calibrate their pair cost and fill the plan cache.
std::unique_ptr<serve::QueryEngine> start_engine(const Schedule& s,
                                                 double& setup_seconds) {
  const double t0 = now_seconds();
  auto engine = std::make_unique<serve::QueryEngine>(s.config);
  std::vector<serve::QueryEngine::ResultFuture> primed;
  for (const Item& it : s.priming)
    primed.push_back(engine->submit(it.query, s.datasets[it.dataset]));
  for (auto& f : primed) (void)f.get();
  setup_seconds = now_seconds() - t0;
  return engine;
}

/// One timed round of the closed loop: each client submits one query,
/// waits for the answer, then submits the next, until `seconds` have
/// passed. Continues the schedule where the previous round stopped.
void run_timed(serve::QueryEngine& engine, const Schedule& s, double seconds,
               std::vector<std::unique_ptr<Walker>>* walkers, Phase& ph) {
  const serve::EngineStats before = engine.stats();
  const std::uint64_t hits0 = engine.plan_cache().hits();
  const std::uint64_t misses0 = engine.plan_cache().misses();
  std::atomic<std::size_t> next{ph.next_item};
  const double start = now_seconds();
  const double deadline = start + seconds;
  std::vector<std::size_t> in_window(s.budget.clients, 0);
  std::atomic<bool> running{true};
  std::vector<double> rss;
  std::thread sampler([&] {
    while (running.load()) {
      rss.push_back(rss_bytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < s.budget.clients; ++c)
    clients.emplace_back([&, c] {
      while (now_seconds() < deadline) {
        const std::size_t i = next.fetch_add(1);
        if (i >= s.items.size()) break;
        const Item& it = s.items[i];
        Record& r = ph.records[i];
        r.cost = std::make_shared<tbs::obs::QueryCost>();
        serve::SubmitOptions opts;
        opts.shards = it.shards;
        opts.cost = r.cost;
        const double t0 = now_seconds();
        try {
          serve::QueryEngine::ResultFuture fut =
              engine.submit(it.query, s.datasets[it.dataset], opts);
          r.submit_seconds = now_seconds() - t0;
          r.result = fut.get();
          r.ok = true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "query %zu failed: %s\n", i, e.what());
        }
        const double done = now_seconds();
        r.latency_seconds = done - t0;
        r.done = true;
        if (r.ok && done <= deadline) ++in_window[c];
        if (walkers != nullptr && r.ok)
          r.walked_seconds = (*walkers)[c]->walk(i, it, *r.cost);
      }
    });
  for (std::thread& t : clients) t.join();
  running.store(false);
  sampler.join();
  ph.next_item = std::min(next.load(), s.items.size());
  for (const std::size_t n : in_window) ph.answered_in_window += n;
  ph.window_seconds += seconds;
  ph.rss_samples.insert(ph.rss_samples.end(), rss.begin(), rss.end());
  const serve::EngineStats after = engine.stats();
  const auto delta = [&](std::uint64_t serve::EngineCounters::*field) {
    return static_cast<double>(after.counters.*field - before.counters.*field);
  };
  ph.counts.submitted += delta(&serve::EngineCounters::submitted);
  ph.counts.cache_hits += delta(&serve::EngineCounters::cache_hits);
  ph.counts.coalesced += delta(&serve::EngineCounters::coalesced);
  ph.counts.audits += delta(&serve::EngineCounters::audits);
  ph.counts.rejected += delta(&serve::EngineCounters::rejected);
  ph.counts.plan_hits += engine.plan_cache().hits() - hits0;
  ph.counts.plan_misses += engine.plan_cache().misses() - misses0;
  ph.occupancy = after.occupancy;
}

bool executed(const Record& r) {
  return r.ok && !r.cost->cache_hit && !r.cost->coalesced;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Median of a sample that may be empty (a layer idle on this workload).
double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : percentile(v, 0.5);
}

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    std::printf("  %-28s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    values_[name] = value;
  }
  void result(bool correct, std::uint64_t attempted, std::uint64_t failed) {
    std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char* sep = "";
    for (const auto& [name, value] : values_) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  std::map<std::string, double> values_;
};

std::string samples(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"query\": " << s.query << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"layer\": \"" << s.layer << "\", \"kind\": \"" << s.kind
        << "\", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"pairs\": " << s.pairs << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const Schedule s = make_schedule(args.workload, args.seed, nproc);
  // The simulator's block pool is sized explicitly, before its first use.
  tbs::vgpu::set_async_worker_count(s.budget.async_workers);

  std::printf("workload %s seed %llu seconds %g trace %d\n", s.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("threads: nproc %u clients %zu devices %zu streams/device %zu "
              "cpu_workers %zu cpu_threads %u async_workers %u\n",
              s.budget.nproc, s.budget.clients, s.budget.devices,
              s.budget.streams_per_device, s.budget.cpu_workers,
              s.budget.cpu_threads, s.budget.async_workers);

  SpanLog log;
  tbs::core::PlanCache walk_plans;
  std::vector<std::unique_ptr<Walker>> walkers;
  if (args.trace) {
    for (std::size_t c = 0; c < s.budget.clients; ++c)
      walkers.push_back(std::make_unique<Walker>(s, log, walk_plans));
    for (auto& w : walkers) w->prime();
  }

  // The untraced run is three rounds, each on a fresh engine: set-up is
  // measured three times (reported as the median), and engine-level
  // chance (calibration timings, the planner's feedback) is pooled over
  // three engines. The traced run is one round.
  const int rounds = args.trace ? 1 : 3;
  std::vector<double> setup_seconds;
  Phase ph;
  ph.records.resize(s.items.size());
  for (int k = 0; k < rounds; ++k) {
    double secs = 0.0;
    std::unique_ptr<serve::QueryEngine> engine = start_engine(s, secs);
    setup_seconds.push_back(secs);
    run_timed(*engine, s, args.seconds / rounds,
              args.trace ? &walkers : nullptr, ph);
    engine->shutdown();
  }
  const double peak_bytes = peak_rss_bytes();

  // ---- answer check, outside the timed phase -----------------------------
  Checker checker(nproc);
  Tally tally;
  std::size_t answered = 0;
  for (std::size_t i = 0; i < ph.records.size(); ++i) {
    const Record& r = ph.records[i];
    if (!r.done) continue;
    ++tally.submitted;
    if (!r.ok) {
      ++tally.failed;
      continue;
    }
    ++answered;
    const Item& it = s.items[i];
    if (!checker.matches(it.query, it.dataset, s.datasets[it.dataset], r.result)) {
      ++tally.wrong;
      std::fprintf(stderr, "query %zu (%s): answer differs from the reference\n",
                   i, serve::kind_name(it.query));
    }
  }
  tally.rejected = static_cast<std::uint64_t>(ph.counts.rejected);
  if (ph.next_item == s.items.size())
    std::printf("warning: the schedule ran out before --seconds elapsed\n");
  const Counts& n = ph.counts;

  // ---- property shares ----------------------------------------------------
  std::size_t planned = 0, sharded = 0;
  double within = 0.0, pcf_pairs = 0.0;
  for (std::size_t i = 0; i < ph.records.size(); ++i) {
    const Record& r = ph.records[i];
    if (!r.ok) continue;
    if (executed(r) && r.cost->raw_estimate_seconds > 0.0) ++planned;
    if (r.cost->sharded) ++sharded;
    if (const auto* p = std::get_if<tbs::kernels::PcfResult>(&r.result)) {
      within += static_cast<double>(p->pairs_within);
      pcf_pairs += pairs_of(s.datasets[s.items[i].dataset].size());
    }
  }
  std::map<std::string, int> variants;
  for (const Record& r : ph.records)
    if (executed(r)) ++variants[r.cost->kind + ":" + r.cost->variant];
  std::printf("executed variants:");
  for (const auto& [v, count] : variants) std::printf(" %s=%d", v.c_str(), count);
  std::printf("\n");
  std::printf("answers: %llu submitted, %zu answered, %llu failed, %llu "
              "rejected, %llu wrong; error_rate %.6g\n",
              static_cast<unsigned long long>(tally.submitted), answered,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.rejected),
              static_cast<unsigned long long>(tally.wrong), tally.error_rate());
  std::printf("shares of submissions: cache_hit %.4f coalesced %.4f planned "
              "%.4f plan_cache_miss %.4f sharded %.4f audited %.4f; "
              "cpubase.within_r_share %.6g\n",
              ratio(n.cache_hits, n.submitted),
              ratio(n.coalesced, n.submitted),
              ratio(static_cast<double>(planned), n.submitted),
              ratio(static_cast<double>(n.plan_misses), n.submitted),
              ratio(static_cast<double>(sharded), n.submitted),
              ratio(n.audits, n.submitted),
              ratio(within, pcf_pairs));

  Report rep;
  if (!args.trace) {
    // ---- end-to-end metrics (untraced run) --------------------------------
    std::vector<double> all;
    std::map<std::string, std::vector<double>> by_kind;
    std::vector<double> device_ms;
    for (std::size_t i = 0; i < ph.records.size(); ++i) {
      const Record& r = ph.records[i];
      if (!r.ok) continue;
      const double ms = r.latency_seconds * 1e3;
      all.push_back(ms);
      by_kind[serve::kind_name(s.items[i].query)].push_back(ms);
      if (executed(r) && s.config.devices > 0)
        device_ms.push_back(
            std::visit([&](const auto& res) {
              return tbs::perfmodel::model_time(s.config.spec, res.stats).seconds;
            }, r.result) * 1e3);
    }
    std::printf("end-to-end (wall clock unless marked):\n");
    rep.metric("qps", static_cast<double>(ph.answered_in_window) / ph.window_seconds,
               "1/s", std::to_string(ph.answered_in_window) + " answers in " +
                          std::to_string(ph.window_seconds) + " s");
    rep.metric("p50_ms", percentile(all, 0.5), "ms", samples(all.size()));
    rep.metric("p90_ms", percentile(all, 0.9), "ms", samples(all.size()));
    // Metrics a workload lacks (a query kind it never sends, the modeled
    // clock on the CPU) are left out; BENCHMARK.json gates only metrics
    // every workload has.
    for (const char* kind : {"sdh", "pcf", "knn", "join"})
      if (const auto it = by_kind.find(kind); it != by_kind.end())
        rep.metric(std::string(kind) + "_p50_ms", percentile(it->second, 0.5),
                   "ms", samples(it->second.size()));
    if (!device_ms.empty())
      rep.metric("device_ms", mean(device_ms), "ms",
                 "modeled clock, mean over " + samples(device_ms.size()));
    rep.metric("error_rate", tally.error_rate(), "ratio");
    rep.metric("setup_s", percentile(setup_seconds, 0.5), "s",
               "median of " + std::to_string(setup_seconds.size()) + " set-ups");
    // Resident memory beyond the inputs: the median over the timed rounds,
    // and the peak, which is set by which transient buffers happen to
    // overlap (a GlobalCursor join reserves n^2/2 pairs).
    const double inputs = static_cast<double>(s.input_bytes);
    rep.metric("rss_mb", (percentile(ph.rss_samples, 0.5) - inputs) / 1e6, "MB",
               "median of " + std::to_string(ph.rss_samples.size()) +
                   " samples, beyond " + std::to_string(s.input_bytes / 1000000) +
                   " MB of inputs");
    rep.metric("rss_peak_mb", (peak_bytes - inputs) / 1e6, "MB");
  } else {
    // ---- per-layer metrics (traced run) -----------------------------------
    const std::vector<Span> spans = log.spans();
    if (!args.trace_out.empty()) write_spans(args.trace_out, spans);
    const auto durations = [&](const std::string& name, const std::string& layer) {
      std::vector<double> v;
      for (const Span& sp : spans)
        if (sp.name == name && (layer.empty() || sp.layer == layer))
          v.push_back(sp.seconds());
      return v;
    };
    const auto ns_per_pair = [&](const std::string& layer, const std::string& kind) {
      double secs = 0.0, pairs = 0.0;
      for (const Span& sp : spans)
        if (sp.layer == layer && (kind.empty() || sp.kind == kind) &&
            sp.pairs > 0.0 && sp.name != "serve.audit") {
          secs += sp.seconds();
          pairs += sp.pairs;
        }
      return ratio(secs, pairs) * 1e9;
    };
    const auto scaled = [](std::vector<double> v, double k) {
      for (double& x : v) x *= k;
      return v;
    };

    std::vector<double> submit_us, self_ms, queue_ms, est_err, warp_cycles;
    double serve_self_total = 0.0;
    for (const Record& r : ph.records) {
      if (!r.ok) continue;
      submit_us.push_back(r.submit_seconds * 1e6);
      serve_self_total += std::max(0.0, r.latency_seconds - r.walked_seconds);
      if (!executed(r)) continue;
      self_ms.push_back((r.latency_seconds - r.walked_seconds) * 1e3);
      queue_ms.push_back(r.cost->phase(tbs::obs::CostPhase::Queue).seconds * 1e3);
      if (r.cost->estimate_seconds > 0.0 && r.cost->measured_seconds > 0.0)
        est_err.push_back(std::abs(r.cost->estimate_seconds - r.cost->measured_seconds) /
                          r.cost->measured_seconds);
      if (s.config.devices > 0)
        warp_cycles.push_back(std::visit(
            [](const auto& res) { return res.stats.total_warp_cycles; }, r.result));
    }
    std::vector<double> wall_speedup, model_speedup, shard_stage, shard_merge;
    std::uint64_t calib = 0, launches = 0;
    for (const auto& w : walkers) {
      calib += w->calibration_launches();
      launches += w->backend_launches();
      for (const ShardSample& ss : w->shard_samples()) {
        wall_speedup.push_back(ratio(ss.one_lane_wall_seconds, ss.wall_seconds));
        model_speedup.push_back(ratio(ss.one_lane_model_seconds, ss.model_seconds));
        shard_stage.push_back(ss.stage_seconds * 1e3);
        shard_merge.push_back(ss.merge_seconds * 1e3);
      }
    }

    std::printf("per-layer (traced run; 0 where the layer does no work here):\n");
    rep.metric("serve.submit_us", median_or_zero(submit_us), "us", samples(submit_us.size()));
    rep.metric("serve.self_ms", median_or_zero(self_ms), "ms", samples(self_ms.size()));
    rep.metric("serve.queue_ms", median_or_zero(queue_ms), "ms", samples(queue_ms.size()));
    rep.metric("serve.hit_ratio", ratio(n.cache_hits, n.submitted), "ratio");
    rep.metric("serve.coalesced_ratio", ratio(n.coalesced, n.submitted), "ratio");
    rep.metric("serve.audits", n.audits, "count");
    const auto audits = durations("serve.audit", "");
    rep.metric("serve.audit_ms", median_or_zero(scaled(audits, 1e3)), "ms", samples(audits.size()));
    rep.metric("serve.occupancy", ph.occupancy, "ratio");
    const auto hashes = durations("common.hash", "");
    rep.metric("common.hash_us", median_or_zero(scaled(hashes, 1e6)), "us", samples(hashes.size()));
    const auto plans = durations("core.plan", "");
    rep.metric("core.plan_ms", mean(scaled(plans, 1e3)), "ms", "mean " + samples(plans.size()));
    rep.metric("core.plan_hit_ratio",
               ratio(static_cast<double>(n.plan_hits),
                     static_cast<double>(n.plan_hits + n.plan_misses)),
               "ratio");
    rep.metric("core.calibration_launches", static_cast<double>(calib), "count");
    rep.metric("core.estimate_error", median_or_zero(est_err), "ratio", samples(est_err.size()));
    const auto runs = durations("shard.run", "");
    rep.metric("shard.run_ms", median_or_zero(scaled(runs, 1e3)), "ms", samples(runs.size()));
    rep.metric("shard.stage_ms", mean(shard_stage), "ms", "mean");
    rep.metric("shard.merge_ms", mean(shard_merge), "ms", "mean");
    rep.metric("shard.wall_speedup", median_or_zero(wall_speedup), "ratio");
    rep.metric("shard.model_speedup", median_or_zero(model_speedup), "ratio", "modeled clock");
    const auto vl = durations("backend.launch", "vgpu");
    const auto cl = durations("backend.launch", "cpubase");
    const auto st = durations("backend.stage", "");
    rep.metric("backend.vgpu.launch_ms", median_or_zero(scaled(vl, 1e3)), "ms", samples(vl.size()));
    rep.metric("backend.cpu.launch_ms", median_or_zero(scaled(cl, 1e3)), "ms", samples(cl.size()));
    rep.metric("backend.stage_ms", median_or_zero(scaled(st, 1e3)), "ms", samples(st.size()));
    rep.metric("backend.launches", static_cast<double>(launches), "count");
    rep.metric("vgpu.ns_per_pair", ns_per_pair("vgpu", ""), "ns");
    const auto knn = durations("kernels.knn", "");
    const auto join = durations("kernels.join", "");
    rep.metric("kernels.knn_ms", median_or_zero(scaled(knn, 1e3)), "ms", samples(knn.size()));
    rep.metric("kernels.join_ms", median_or_zero(scaled(join, 1e3)), "ms", samples(join.size()));
    rep.metric("kernels.warp_cycles", mean(warp_cycles), "count", "mean per executed answer");
    for (const char* kind : {"sdh", "pcf", "join", "knn"})
      rep.metric(std::string("cpubase.") + kind + "_ns_per_pair",
                 ns_per_pair("cpubase", kind), "ns");
    rep.metric("cpubase.within_r_share", ratio(within, pcf_pairs), "ratio");

    // Self time per layer: span time minus covered children; serve's is
    // the client latency the walked layers do not explain.
    std::map<std::string, double> self;
    const std::vector<double> st_self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) self[spans[i].layer] += st_self[i];
    self["serve"] += serve_self_total;
    double total = 0.0;
    for (const auto& [layer, secs] : self) total += secs;
    std::string top;
    std::printf("self time by layer:");
    for (const auto& [layer, secs] : self) {
      std::printf(" %s %.3f", layer.c_str(), ratio(secs, total));
      if (top.empty() || secs > self[top]) top = layer;
    }
    std::printf("\n");
    const double reused = ratio(n.cache_hits + n.coalesced, n.submitted);
    if (s.workload == "vgpu-mixed")
      std::printf("load check: largest self-time layer %s (want vgpu): %s\n",
                  top.c_str(), top == "vgpu" ? "PASS" : "FAIL");
    else if (s.workload == "cpu-radius")
      std::printf("load check: largest self-time layer %s (want cpubase): %s\n",
                  top.c_str(), top == "cpubase" ? "PASS" : "FAIL");
    else
      std::printf("load check: hit+coalesced share %.3f (want > 0.5), audits "
                  "%.0f (want > 0): %s\n",
                  reused, n.audits, reused > 0.5 && n.audits > 0
                      ? "PASS"
                      : "FAIL");
  }
  rep.result(tally.wrong == 0, tally.submitted, tally.failures());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s\n", e.what());
  return 1;
}
