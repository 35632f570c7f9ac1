#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>

#include "backend/backend.hpp"
#include "common/datagen.hpp"
#include "common/error.hpp"
#include "kernels/registry.hpp"
#include "obs/json.hpp"
#include "perfmodel/counts.hpp"

namespace tbs::obs {

void observe_launches(vgpu::Device& device, Tracer& tracer,
                      Counter& launches) {
  device.set_launch_observer(
      [&tracer, &launches](const vgpu::LaunchRecord& rec) {
        launches.inc();
        if (!tracer.enabled()) return;
        // The launch just finished; reconstruct its interval from wall time
        // so it lands nested under whatever span the issuing thread has open.
        const auto now = Tracer::Clock::now();
        const auto start =
            now - std::chrono::duration_cast<Tracer::Clock::duration>(
                      std::chrono::duration<double>(rec.wall_seconds));
        tracer.record_span(
            "vgpu.launch", "vgpu", start, now, current_trace_context(),
            {{"grid", std::to_string(rec.cfg.grid_dim)},
             {"block", std::to_string(rec.cfg.block_dim)},
             {"warp_cycles", json::number(rec.stats->total_warp_cycles)},
             {"pooled", rec.pooled ? "true" : "false"}});
      });
}

// --- drift ------------------------------------------------------------------

std::vector<std::pair<std::string, double>> drift_counters(
    const vgpu::KernelStats& s) {
  return {
      {"global_loads", static_cast<double>(s.global_loads)},
      {"global_stores", static_cast<double>(s.global_stores)},
      {"global_atomics", static_cast<double>(s.global_atomics)},
      {"roc_loads", static_cast<double>(s.roc_loads)},
      {"shared_loads", static_cast<double>(s.shared_loads)},
      {"shared_stores", static_cast<double>(s.shared_stores)},
      {"shared_atomics", static_cast<double>(s.shared_atomics)},
      {"shuffles", static_cast<double>(s.shuffles)},
      {"total_warp_cycles", s.total_warp_cycles},
  };
}

double DriftReport::max_rel_error() const {
  double worst_err = 0.0;
  for (const DriftRow& r : rows) worst_err = std::max(worst_err, r.rel_error);
  return worst_err;
}

const DriftRow* DriftReport::worst() const {
  const DriftRow* out = nullptr;
  for (const DriftRow& r : rows)
    if (out == nullptr || r.rel_error > out->rel_error) out = &r;
  return out;
}

bool DriftReport::within_tolerance() const {
  return max_rel_error() <= tolerance;
}

void DriftReport::enforce() const {
  if (within_tolerance()) return;
  const DriftRow* w = worst();
  fail("drift report: model-vs-measured error " +
       std::to_string(w->rel_error * 100) + "% on " + w->variant + "/" +
       w->counter + " (predicted " + std::to_string(w->predicted) +
       ", measured " + std::to_string(w->measured) + ") exceeds tolerance " +
       std::to_string(tolerance * 100) + "%");
}

std::string DriftReport::to_json() const {
  std::string out = "{\n  \"tolerance\": " + json::number(tolerance) +
                    ",\n  \"verify_n\": " + json::number(verify_n) +
                    ",\n  \"backend\": \"" + json::escape(backend) + "\"" +
                    ",\n  \"max_rel_error\": " + json::number(max_rel_error()) +
                    ",\n  \"within_tolerance\": " +
                    (within_tolerance() ? "true" : "false") +
                    ",\n  \"skipped\": [";
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    out += '"';
    out += json::escape(skipped[i]);
    out += '"';
    if (i + 1 < skipped.size()) out += ", ";
  }
  out += "],\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DriftRow& r = rows[i];
    out += "    {\"variant\": \"" + json::escape(r.variant) +
           "\", \"counter\": \"" + json::escape(r.counter) +
           "\", \"predicted\": " + json::number(r.predicted) +
           ", \"measured\": " + json::number(r.measured) +
           ", \"rel_error\": " + json::number(r.rel_error) + "}";
    if (i + 1 < rows.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool DriftReport::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << to_json();
  return static_cast<bool>(os);
}

bool has_simulated_counters(const vgpu::KernelStats& s) {
  for (const auto& [name, value] : drift_counters(s))
    if (value != 0.0) return true;
  return false;
}

DriftReport check_drift(backend::IBackend& be, const DriftOptions& opt) {
  check(opt.calib_ns[0] < opt.calib_ns[1] && opt.calib_ns[1] < opt.calib_ns[2],
        "check_drift: calibration sizes must be strictly increasing");
  check(opt.verify_n > opt.calib_ns[2],
        "check_drift: verify_n must exceed the largest calibration size");

  DriftReport report;
  report.tolerance = opt.tolerance;
  report.verify_n = opt.verify_n;
  report.backend = be.caps().name;

  // Fixed histogram geometry across sizes: derive the bucket width from the
  // verify-size dataset once, so every calibration launch computes the same
  // statistic the verification launch does.
  const PointsSoA ref =
      uniform_box(static_cast<std::size_t>(opt.verify_n), 10.0f, /*seed=*/42);
  const double width =
      ref.max_possible_distance() / opt.buckets + 1e-4;
  // One variant at size n: a fresh deterministic dataset, outputs
  // discarded (calibration style).
  const auto measure = [&](const kernels::KernelVariant& kernel,
                           const kernels::ProblemDesc& desc, double n) {
    const PointsSoA pts =
        uniform_box(static_cast<std::size_t>(n), 10.0f, /*seed=*/42);
    kernels::KernelOutput sink;
    return be.launch(kernel, pts, desc, opt.block_size, sink);
  };

  const kernels::KernelRegistry& registry = kernels::KernelRegistry::instance();
  for (const kernels::ProblemType type :
       {kernels::ProblemType::Sdh, kernels::ProblemType::Pcf}) {
    const kernels::ProblemDesc desc =
        type == kernels::ProblemType::Sdh
            ? kernels::ProblemDesc::sdh(width, opt.buckets)
            : kernels::ProblemDesc::pcf(opt.radius);
    for (const kernels::KernelVariant* kernel :
         registry.plannable(type, be.caps().registry_mask)) {
      if (!be.can_launch(*kernel, desc, opt.block_size))
        continue;  // not launchable at this block size on this substrate

      Span span(Tracer::global(), "obs.drift_check", "obs");
      span.attr("variant", kernel->name);
      span.attr("backend", report.backend);

      std::array<vgpu::KernelStats, 3> samples;
      for (std::size_t i = 0; i < opt.calib_ns.size(); ++i)
        samples[i] = measure(*kernel, desc, opt.calib_ns[i]);
      // Skip rule: a run with no simulated device counters (a CPU launch)
      // has nothing for the Eqs. 2–7 polynomial to predict — every counter
      // is identically zero on the host substrate. Comparing would either
      // pass vacuously or, mixed with nonzero rows, report spurious 100%
      // drift. Record the skip so the report stays auditable.
      if (!has_simulated_counters(samples[0])) {
        report.skipped.push_back(kernel->name);
        span.attr("skipped", "no_simulated_counters");
        continue;
      }
      const perfmodel::StatsPoly poly(opt.calib_ns, samples);
      const vgpu::KernelStats predicted = poly.predict(opt.verify_n);
      const vgpu::KernelStats measured = measure(*kernel, desc, opt.verify_n);

      const auto pred_counters = drift_counters(predicted);
      const auto meas_counters = drift_counters(measured);
      for (std::size_t c = 0; c < pred_counters.size(); ++c) {
        DriftRow row;
        row.variant = kernel->name;
        row.counter = pred_counters[c].first;
        row.predicted = pred_counters[c].second;
        row.measured = meas_counters[c].second;
        row.rel_error = std::fabs(row.predicted - row.measured) /
                        std::max(std::fabs(row.measured), 1.0);
        report.rows.push_back(std::move(row));
      }
    }
  }
  check(!report.rows.empty() || !report.skipped.empty(),
        "check_drift: no launchable variant matched");
  return report;
}

namespace {

/// A span name with ';' or ' ' would corrupt the collapsed-stack grammar
/// (semicolon separates frames, the last space separates the value).
std::string frame_name(const std::string& name) {
  std::string out = name.empty() ? std::string("<anonymous>") : name;
  for (char& c : out)
    if (c == ';' || c == ' ' || c == '\n') c = '_';
  return out;
}

/// Resolve each span's parent index (-1 = root): by recorded span ids when
/// the child's parent_id names a span we hold, else by per-thread (ts,
/// depth) nesting — a span encloses every later same-thread span of
/// greater depth until one of depth <= its own closes the scope.
std::vector<int> resolve_parents(const std::vector<SpanRecord>& spans) {
  std::vector<int> parent(spans.size(), -1);
  std::map<std::uint64_t, int> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].span_id != 0)
      by_id[spans[i].span_id] = static_cast<int>(i);

  std::vector<int> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const SpanRecord& sa = spans[static_cast<std::size_t>(a)];
    const SpanRecord& sb = spans[static_cast<std::size_t>(b)];
    if (sa.tid != sb.tid) return sa.tid < sb.tid;
    if (sa.ts_us != sb.ts_us) return sa.ts_us < sb.ts_us;
    return sa.depth < sb.depth;
  });

  std::map<std::uint32_t, std::vector<int>> stacks;
  for (const int i : order) {
    const SpanRecord& s = spans[static_cast<std::size_t>(i)];
    std::vector<int>& stack = stacks[s.tid];
    while (!stack.empty()) {
      const SpanRecord& top = spans[static_cast<std::size_t>(stack.back())];
      if (top.depth >= s.depth || top.ts_us + top.dur_us <= s.ts_us)
        stack.pop_back();
      else
        break;
    }
    if (s.parent_id != 0) {
      const auto it = by_id.find(s.parent_id);
      if (it != by_id.end() && it->second != i) {
        parent[static_cast<std::size_t>(i)] = it->second;
        stack.push_back(i);
        continue;
      }
    }
    parent[static_cast<std::size_t>(i)] = stack.empty() ? -1 : stack.back();
    stack.push_back(i);
  }
  return parent;
}

/// Full "a;b;c" path per span, memoized; a defensive hop cap breaks any
/// parent cycle a malformed record set could encode.
std::vector<std::string> resolve_paths(const std::vector<SpanRecord>& spans,
                                       const std::vector<int>& parent) {
  std::vector<std::string> paths(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<int> chain;
    int cur = static_cast<int>(i);
    while (cur >= 0 && chain.size() <= spans.size()) {
      chain.push_back(cur);
      const std::size_t u = static_cast<std::size_t>(cur);
      if (!paths[u].empty() && cur != static_cast<int>(i)) break;
      cur = parent[u];
    }
    std::string prefix;
    int resolved = -1;
    if (!chain.empty()) {
      const std::size_t last = static_cast<std::size_t>(chain.back());
      if (!paths[last].empty() && chain.back() != static_cast<int>(i)) {
        prefix = paths[last];
        resolved = chain.back();
      }
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (*it == resolved) continue;
      const std::size_t u = static_cast<std::size_t>(*it);
      if (!prefix.empty()) prefix += ';';
      prefix += frame_name(spans[u].name);
      paths[u] = prefix;
    }
  }
  return paths;
}

}  // namespace

std::vector<TimeAccountRow> time_accounting(
    const std::vector<SpanRecord>& spans) {
  const std::vector<int> parent = resolve_parents(spans);
  const std::vector<std::string> paths = resolve_paths(spans, parent);

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (parent[i] >= 0)
      self[static_cast<std::size_t>(parent[i])] -= spans[i].dur_us;

  std::map<std::string, TimeAccountRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    TimeAccountRow& row = rows[paths[i]];
    row.path = paths[i];
    row.total_us += spans[i].dur_us;
    row.self_us += std::max(0.0, self[i]);
    ++row.count;
  }
  std::vector<TimeAccountRow> out;
  out.reserve(rows.size());
  for (auto& [path, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const TimeAccountRow& a, const TimeAccountRow& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.path < b.path;
            });
  return out;
}

std::string collapsed_stacks(const std::vector<SpanRecord>& spans) {
  // Aggregate self time per path; the flamegraph tool reconstructs
  // inclusive time by stacking children, so self is the right value.
  std::map<std::string, double> folded;
  for (const TimeAccountRow& row : time_accounting(spans))
    folded[row.path] += row.self_us;
  std::string out;
  for (const auto& [path, self_us] : folded) {
    const long long us = std::llround(self_us);
    if (us <= 0) continue;
    out += path;
    out += ' ';
    out += std::to_string(us);
    out += '\n';
  }
  return out;
}

std::string collapsed_stacks(const Tracer& tracer) {
  return collapsed_stacks(tracer.snapshot());
}

std::string time_accounting_text(const std::vector<TimeAccountRow>& rows,
                                 std::size_t max_rows) {
  std::string out =
      "total_ms     self_ms      count  stack\n"
      "-----------  -----------  -----  -----\n";
  std::size_t shown = 0;
  for (const TimeAccountRow& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size() - max_rows) +
             " more rows)\n";
      break;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%11.3f  %11.3f  %5llu  ",
                  row.total_us / 1000.0, row.self_us / 1000.0,
                  static_cast<unsigned long long>(row.count));
    out += buf;
    out += row.path;
    out += '\n';
  }
  return out;
}

bool write_collapsed(const Tracer& tracer, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << collapsed_stacks(tracer);
  return static_cast<bool>(os);
}

}  // namespace tbs::obs
