// Shared machinery for the paper-reproduction benches.
//
// Every figure/table bench follows the same recipe:
//   1. functionally simulate each kernel at small calibration sizes
//      (exact counters),
//   2. extrapolate the counters to the paper's sizes with
//      perfmodel::StatsPoly (exact for fixed B/H — see counts.hpp),
//   3. convert counters to time/utilization/bandwidth with
//      perfmodel::model_time,
//   4. print the paper-shaped table + ASCII chart, and self-check the
//      paper's qualitative claims (who wins, by roughly what factor).
// Rows computed from a direct simulation are tagged "sim"; extrapolated
// rows are tagged "model".
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "common/points.hpp"
#include "obs/report.hpp"
#include "perfmodel/cpumodel.hpp"
#include "perfmodel/timemodel.hpp"
#include "vgpu/device.hpp"

namespace tbs::bench {

/// A kernel runner: simulate at n points, return the exact counters.
using Runner = std::function<vgpu::KernelStats(std::size_t n)>;

/// One kernel's sweep over sizes: modeled seconds per size, with
/// sim/model provenance.
struct Sweep {
  std::string name;
  std::vector<double> seconds;
  std::vector<perfmodel::TimeReport> reports;
  std::vector<bool> extrapolated;
};

/// Run `runner` over `ns`: sizes <= sim_limit are simulated directly;
/// larger sizes are extrapolated from the three calibration sizes.
Sweep sweep(const std::string& name, const std::vector<double>& ns,
            double sim_limit, const std::array<double, 3>& calib_ns,
            const vgpu::DeviceSpec& spec, const Runner& runner);

/// Default sweep sizes approximating the paper's x-axes (512 .. 2M).
std::vector<double> paper_sizes();

/// Default calibration sizes / direct-simulation limit.
inline constexpr std::array<double, 3> kCalibSizes = {1024, 2048, 4096};
inline constexpr double kSimLimit = 4096;

/// Append one BenchReport entry per size of the sweep: the modeled seconds
/// (gated, lower-is-better) plus the full utilization/bandwidth report,
/// tagged "sim" or "model" to match the printed table's provenance column.
void add_sweep(obs::BenchReport& report, const Sweep& s,
               const std::vector<double>& ns);

/// Write `BENCH_<name>.json` into `dir` (see obs::artifact_dir) and print
/// the path. Failure is reported but non-fatal — the printed table is
/// still the bench's primary output.
bool write_report(const obs::BenchReport& report, const std::string& dir);

/// Simulate at the three calibration sizes, extrapolate the counters to
/// target_n, and return the profiler-style report at that scale. Used by
/// the utilization/bandwidth tables, which the paper measures on multi-
/// hundred-thousand-point runs (tiny grids would be latency-bound and
/// unrepresentative). `clamped`, when given, receives the counters whose
/// fit went below zero at target_n and were reported as 0
/// (perfmodel::StatsPoly::predict).
perfmodel::TimeReport report_at(const vgpu::DeviceSpec& spec,
                                const std::array<double, 3>& calib_ns,
                                const Runner& runner, double target_n,
                                std::vector<std::string>* clamped = nullptr);

/// Calibrate the 8-core-Xeon-equivalent CPU model by timing the real
/// cpubase SDH implementation on this host.
perfmodel::CpuModel calibrate_cpu(std::size_t n = 3000);

/// Resolve the requested execution substrate for a bench run:
/// `--backend {vgpu,cpu,auto}` in argv wins, else the TBS_BACKEND env
/// override, else `fallback`. Anything else fails loudly (CheckError) so a
/// typo'd CI matrix entry can't silently bench the wrong substrate.
std::string backend_choice(int argc, char** argv,
                           const std::string& fallback = "vgpu");

/// Shape-check registry: records pass/fail, prints, and provides the
/// process exit code (0 iff all passed).
class ShapeChecks {
 public:
  void expect(bool ok, const std::string& what);
  /// Print the summary and return the exit code.
  int finish() const;

 private:
  int failures_ = 0;
  int total_ = 0;
};

/// Format seconds with an s/ms/us suffix.
std::string fmt_time(double seconds);

/// Format bytes/second as GB/s or TB/s.
std::string fmt_bw(double bytes_per_sec);

}  // namespace tbs::bench
