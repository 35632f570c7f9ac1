// The launch hook + model-vs-measured drift reports.
//
// The paper validates its analytical access-count models (Eqs. 2–7)
// against NVIDIA Visual Profiler counters; this file keeps that discipline
// running continuously. Two tools:
//
// 1. observe_launches() — attaches to a vgpu::Device via its
//    LaunchObserver hook, counts every launch and emits a `vgpu.launch`
//    span per launch so kernel work shows up in the trace timeline nested
//    under whatever the caller had open.
//
// 2. check_drift() — for each plannable kernel variant, calibrates
//    perfmodel::StatsPoly at three small sizes, predicts the access
//    counters at a held-out larger size, measures that size for real, and
//    reports the per-counter relative error. The polynomial model is exact
//    for a stationary input distribution (counts.hpp), so measured drift
//    above kDriftTolerance means the model and the simulator have come
//    apart — the report "fails loudly" via enforce(), and CI gates on it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vgpu/device.hpp"

namespace tbs::backend {
class IBackend;
}  // namespace tbs::backend

namespace tbs::obs {

/// Install `device`'s launch observer (replacing any other). Every launch
/// bumps `launches`; while `tracer` is enabled it also records a
/// `vgpu.launch` span (grid, block, warp_cycles, pooled) under the issuing
/// thread's trace context — a worker's serve.execute span, a shard lane's
/// ScopedTraceContext — so the launch joins the trace of the query that
/// made it. `tracer` and `launches` must outlive the device's launches.
void observe_launches(vgpu::Device& device, Tracer& tracer,
                      Counter& launches);

/// Documented drift tolerance: every predicted-vs-measured access counter
/// must be within 5% relative error. The StatsPoly fit is mathematically
/// exact for counters polynomial in the block count; the residual budget
/// covers data-dependent effects (cache hit mixes, atomic collision
/// degrees) that vary slightly between the calibration and verify sizes.
inline constexpr double kDriftTolerance = 0.05;

/// One predicted-vs-measured comparison.
struct DriftRow {
  std::string variant;   ///< registry name, e.g. "Reg-ROC-Out"
  std::string counter;   ///< KernelStats field name
  double predicted = 0.0;
  double measured = 0.0;
  double rel_error = 0.0;  ///< |p - m| / max(|m|, 1)
};

struct DriftReport {
  double tolerance = kDriftTolerance;
  double verify_n = 0.0;  ///< held-out size the predictions were checked at
  /// Which substrate the sweep launched through ("vgpu:<spec>"/"cpu:<N>w").
  std::string backend = "vgpu";
  std::vector<DriftRow> rows;
  /// Variants skipped because their runs carried no simulated device
  /// counters (CPU launches): Eqs. 2–7 model nothing there, so comparing
  /// would report spurious 100% drift instead of a meaningful residual.
  std::vector<std::string> skipped;

  [[nodiscard]] double max_rel_error() const;
  [[nodiscard]] const DriftRow* worst() const;  ///< nullptr when empty
  [[nodiscard]] bool within_tolerance() const;

  /// Throw CheckError naming the worst row if any row exceeds tolerance —
  /// the loud-failure entry point for tests and benches.
  void enforce() const;

  /// {"tolerance": ..., "verify_n": ..., "max_rel_error": ...,
  ///  "within_tolerance": ..., "rows": [{...}]}
  [[nodiscard]] std::string to_json() const;
  bool write_json(const std::string& path) const;
};

/// Which planner-eligible variants (the ones serving traffic) and sizes
/// check_drift() sweeps.
struct DriftOptions {
  /// Calibration sizes for the StatsPoly fit (strictly increasing).
  std::array<double, 3> calib_ns = {512, 1024, 2048};
  /// Held-out size predictions are verified against.
  double verify_n = 4096;
  int block_size = 256;
  int buckets = 64;      ///< SDH histogram size
  double radius = 2.0;   ///< PCF cutoff
  double tolerance = kDriftTolerance;
};

/// Run the drift sweep through `be`. Each row compares one access counter
/// (global/shared/ROC loads+stores+atomics, shuffles, warp cycles) of one
/// variant its registry mask admits. Deterministic: fixed datagen seeds,
/// fixed sizes. A variant whose measured run has no simulated device
/// counters is *skipped* (recorded in DriftReport::skipped) — a CPU launch
/// has nothing for Eqs. 2–7 to predict, so the CI drift gate passes
/// cleanly instead of failing with 100% error.
DriftReport check_drift(backend::IBackend& be, const DriftOptions& opt = {});

/// True when the stats carry at least one simulated-device access counter
/// (the fields drift_counters() compares). CPU launches report host-side
/// facts only, so this is the drift sweep's skip predicate.
bool has_simulated_counters(const vgpu::KernelStats& s);

/// The KernelStats counters the drift sweep compares, as (name, value)
/// pairs — exposed so tests and the report stay in sync.
std::vector<std::pair<std::string, double>> drift_counters(
    const vgpu::KernelStats& s);

// ---- Continuous profiling: folding the span tree ----
//
// The tracer's span set is a timeline; these helpers fold it into the two
// classic aggregate views: collapsed stacks (the flamegraph input format —
// one "root;child;leaf <µs>" line per distinct stack, value = self time)
// and a top-down time-accounting table (inclusive/self/count per stack
// path). Parentage is resolved from span ids where a trace context was
// recorded, and from per-thread (ts, depth) nesting for context-free spans
// — so one fold covers engine spans, planner spans, and retroactive
// queue-wait spans on synthetic tracks alike.

/// Fold completed spans into collapsed-stack lines, sorted, one per
/// distinct stack: "a;b;c <integer µs of self time>". Stacks whose self
/// time rounds to zero µs are omitted.
std::string collapsed_stacks(const std::vector<SpanRecord>& spans);

/// collapsed_stacks() over everything `tracer` has collected.
std::string collapsed_stacks(const Tracer& tracer);

/// One stack path's totals in the time-accounting view.
struct TimeAccountRow {
  std::string path;       ///< "a;b;c"
  double total_us = 0.0;  ///< inclusive (sum of span durations at path)
  double self_us = 0.0;   ///< exclusive of child spans, clamped >= 0
  std::uint64_t count = 0;
};

/// Top-down accounting: one row per distinct stack path, sorted by
/// inclusive time descending.
std::vector<TimeAccountRow> time_accounting(
    const std::vector<SpanRecord>& spans);

/// Render rows as an aligned text table (truncated to `max_rows`).
std::string time_accounting_text(const std::vector<TimeAccountRow>& rows,
                                 std::size_t max_rows = 30);

/// Write collapsed_stacks(tracer) to `path`; false if the file won't open.
bool write_collapsed(const Tracer& tracer, const std::string& path);

}  // namespace tbs::obs
