#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/datagen.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "cpubase/cpu_stats.hpp"
#include "perfmodel/counts.hpp"

namespace tbs::bench {

Sweep sweep(const std::string& name, const std::vector<double>& ns,
            double sim_limit, const std::array<double, 3>& calib_ns,
            const vgpu::DeviceSpec& spec, const Runner& runner) {
  Sweep out;
  out.name = name;

  std::array<vgpu::KernelStats, 3> calib;
  for (int i = 0; i < 3; ++i)
    calib[static_cast<std::size_t>(i)] = runner(static_cast<std::size_t>(
        calib_ns[static_cast<std::size_t>(i)]));
  const perfmodel::StatsPoly poly(calib_ns, calib);

  for (const double n : ns) {
    vgpu::KernelStats stats;
    bool extrapolated = false;
    if (n <= sim_limit) {
      // Reuse a calibration run if the size matches.
      int hit = -1;
      for (int i = 0; i < 3; ++i)
        if (calib_ns[static_cast<std::size_t>(i)] == n) hit = i;
      stats = hit >= 0 ? calib[static_cast<std::size_t>(hit)]
                       : runner(static_cast<std::size_t>(n));
    } else {
      stats = poly.predict(n);
      extrapolated = true;
    }
    const auto report = perfmodel::model_time(spec, stats);
    out.seconds.push_back(report.seconds);
    out.reports.push_back(report);
    out.extrapolated.push_back(extrapolated);
  }
  return out;
}

void add_sweep(obs::BenchReport& report, const Sweep& s,
               const std::vector<double>& ns) {
  for (std::size_t i = 0; i < ns.size() && i < s.seconds.size(); ++i) {
    obs::BenchEntry& e =
        report.entry(s.name, ns[i], s.extrapolated[i] ? "model" : "sim");
    e.metric("seconds", s.seconds[i], obs::Better::Lower);
    e.report = s.reports[i];
    e.has_report = true;
  }
}

bool write_report(const obs::BenchReport& report, const std::string& dir) {
  const std::string path =
      obs::artifact_path(dir, "BENCH_" + report.name() + ".json");
  const bool ok = report.write_json(path);
  if (ok)
    std::printf("\nwrote %s\n", path.c_str());
  else
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  return ok;
}

std::vector<double> paper_sizes() {
  return {1024, 4096, 100'000, 400'000, 800'000, 1'200'000, 1'600'000,
          2'000'000};
}

perfmodel::TimeReport report_at(const vgpu::DeviceSpec& spec,
                                const std::array<double, 3>& calib_ns,
                                const Runner& runner, double target_n,
                                std::vector<std::string>* clamped) {
  std::array<vgpu::KernelStats, 3> calib;
  for (int i = 0; i < 3; ++i)
    calib[static_cast<std::size_t>(i)] = runner(static_cast<std::size_t>(
        calib_ns[static_cast<std::size_t>(i)]));
  const perfmodel::StatsPoly poly(calib_ns, calib);
  return perfmodel::model_time(spec, poly.predict(target_n, clamped));
}

perfmodel::CpuModel calibrate_cpu(std::size_t n) {
  const PointsSoA pts = uniform_box(n, 10.0f, 12345);
  cpubase::ThreadPool pool;  // all available cores on this host
  // Best-of-2: wall-clock on a shared host is noisy upward, never
  // downward, so the minimum is the honest per-pair cost.
  double best = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    WallTimer t;
    (void)cpubase::cpu_sdh(pool, pts, 0.5, 64);
    best = std::min(best, t.seconds());
  }
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  return perfmodel::CpuModel(pairs, best, pool.size());
}

std::string backend_choice(int argc, char** argv,
                           const std::string& fallback) {
  std::string choice = fallback;
  if (const char* env = std::getenv("TBS_BACKEND");
      env != nullptr && *env != '\0')
    choice = env;
  const std::string flag = obs::arg_value(argc, argv, "--backend", choice);
  check(flag == "vgpu" || flag == "cpu" || flag == "auto",
        "backend_choice: --backend/TBS_BACKEND must be vgpu, cpu, or auto "
        "(got \"" + flag + "\")");
  return flag;
}

void ShapeChecks::expect(bool ok, const std::string& what) {
  ++total_;
  if (!ok) ++failures_;
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
}

int ShapeChecks::finish() const {
  std::printf("\nshape checks: %d/%d passed\n", total_ - failures_, total_);
  return failures_ == 0 ? 0 : 1;
}

std::string fmt_time(double seconds) {
  std::ostringstream os;
  os.precision(3);
  if (seconds >= 1.0)
    os << std::fixed << seconds << " s";
  else if (seconds >= 1e-3)
    os << std::fixed << seconds * 1e3 << " ms";
  else
    os << std::fixed << seconds * 1e6 << " us";
  return os.str();
}

std::string fmt_bw(double bytes_per_sec) {
  std::ostringstream os;
  os.precision(2);
  if (bytes_per_sec >= 1e12)
    os << std::fixed << bytes_per_sec / 1e12 << " TB/s";
  else
    os << std::fixed << bytes_per_sec / 1e9 << " GB/s";
  return os.str();
}

}  // namespace tbs::bench
