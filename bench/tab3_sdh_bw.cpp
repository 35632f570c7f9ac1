// Paper Table III: achieved bandwidth of different memory units running
// the SDH kernels.
//
//   Kernel        shared     L2        data cache  global load
//   Naive         0 B/s      270 GB/s  32 GB/s     104 GB/s
//   Naive-Out     1.66 TB/s  437 GB/s  138 GB/s    563 GB/s
//   Reg-SHM-Out   2.86 TB/s  10 GB/s   3 GB/s      10 GB/s
//   Reg-ROC-Out   2.59 TB/s  55 GB/s   267 GB/s    68 GB/s
//
// Shape: privatized kernels push shared memory into the TB/s regime and it
// becomes their limiting unit; Reg-ROC-Out additionally sustains high
// read-only-cache traffic; Naive's only busy unit is the L2/global path.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/sdh.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;
  using kernels::SdhVariant;

  const std::string out_dir = obs::artifact_dir(argc, argv);
  const std::string trace_path =
      obs::artifact_path(out_dir, "tab3_trace.json");
  const std::string metrics_path =
      obs::artifact_path(out_dir, "tab3_metrics.json");

  std::printf("=== Table III: SDH achieved memory bandwidth ===\n\n");

  obs::Tracer::global().enable();
  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  // Hook the device: every calibration launch bumps vgpu.launches and
  // lands in the trace as a vgpu.launch span nested under its variant's
  // bench span.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::observe_launches(dev, obs::Tracer::global(),
                        reg.counter("vgpu.launches"));
  const double target_n = 400'000;  // paper-scale run via extrapolation
  const int buckets = 256;
  std::printf("(counters calibrated at N<=4096, reported at N=%.0fk)\n\n",
              target_n / 1000);

  const SdhVariant variants[] = {SdhVariant::Naive, SdhVariant::NaiveOut,
                                 SdhVariant::RegShmOut,
                                 SdhVariant::RegRocOut};
  const char* paper_rows[] = {
      "0, 270G, 32G", "1.66T, 437G, 138G", "2.86T, 10G, 3G",
      "2.59T, 55G, 267G"};

  TextTable t({"kernel", "shared", "l2", "data cache", "dram",
               "bottleneck", "paper(sh,l2,roc)"});
  std::vector<perfmodel::TimeReport> reports;
  int row = 0;
  bool any_clamped = false;
  for (const auto v : variants) {
    obs::Span span("bench.tab3.variant", "bench");
    span.attr("kernel", kernels::to_string(v));
    std::vector<std::string> clamped;
    const auto rep = report_at(
        dev.spec(), kCalibSizes,
        [&stream, v, buckets](std::size_t n) {
          const auto pts = uniform_box(n, 10.0f, 42);
          const double width = pts.max_possible_distance() / buckets + 1e-4;
          return kernels::run_sdh(stream, pts, width, buckets, v, 256).stats;
        },
        target_n, &clamped);
    // A bandwidth whose byte counter's fit went negative reads 0 B/s; mark
    // it so that 0 is not read as a measured one.
    const auto bw = [&](double value, const char* counter) {
      if (std::find(clamped.begin(), clamped.end(), counter) ==
          clamped.end())
        return fmt_bw(value);
      any_clamped = true;
      return fmt_bw(value) + " (fit<0)";
    };
    reports.push_back(rep);
    // Publish the modeled bandwidths as gauges so metrics.json carries the
    // same numbers the table prints.
    const std::string prefix = std::string("tab3.") + kernels::to_string(v);
    reg.gauge(prefix + ".bw_shared").set(rep.bw_shared);
    reg.gauge(prefix + ".bw_l2").set(rep.bw_l2);
    reg.gauge(prefix + ".bw_roc").set(rep.bw_roc);
    reg.gauge(prefix + ".bw_dram").set(rep.bw_dram);
    t.add_row({kernels::to_string(v), bw(rep.bw_shared, "shared_transactions"),
               bw(rep.bw_l2, "l2_bytes"), bw(rep.bw_roc, "roc_hit_bytes"),
               bw(rep.bw_dram, "dram_bytes"), rep.bottleneck,
               paper_rows[row++]});
  }
  t.print(std::cout);
  if (any_clamped)
    std::printf("(fit<0): the counter's three calibration values bend its "
                "fit below zero at N=%.0fk, so it reads 0; the simulated L2 "
                "and read-only cache follow host addresses (ROADMAP item 1)\n",
                target_n / 1000);

  obs::Tracer::global().write_chrome_trace(trace_path);
  obs::MetricsRegistry::global().write_json(metrics_path);
  std::printf("\nwrote %s (%zu spans) and %s\n", trace_path.c_str(),
              obs::Tracer::global().size(), metrics_path.c_str());

  std::printf("\npaper claims vs measured shape:\n");
  ShapeChecks checks;
  const auto& naive = reports[0];
  const auto& naive_out = reports[1];
  const auto& shm_out = reports[2];
  const auto& roc_out = reports[3];
  checks.expect(naive.bw_shared == 0.0,
                "Naive uses no shared memory (paper: 0 B/s)");
  checks.expect(naive.bw_l2 + naive.bw_dram > naive.bw_roc,
                "Naive's traffic is on the L2/global path");
  checks.expect(shm_out.bw_shared > 1.0e12,
                "Reg-SHM-Out sustains TB/s-level shared bandwidth "
                "(paper: 2.86 TB/s; measured " +
                    fmt_bw(shm_out.bw_shared) + ")");
  checks.expect(roc_out.bw_shared > 1.0e12,
                "Reg-ROC-Out also sustains TB/s-level shared bandwidth "
                "(paper: 2.59 TB/s)");
  checks.expect(roc_out.bw_roc > 10.0 * shm_out.bw_roc,
                "Reg-ROC-Out drives the read-only cache hard, Reg-SHM-Out "
                "barely (paper: 267 vs 3 GB/s)");
  checks.expect(shm_out.bw_l2 < naive_out.bw_l2,
                "tiling slashes L2 traffic vs Naive-Out (paper: 10 vs "
                "437 GB/s)");
  checks.expect(shm_out.bottleneck == "shared-memory" ||
                    roc_out.bottleneck == "shared-memory",
                "shared memory limits the privatized kernels (paper's "
                "conclusion)");
  checks.expect(reg.counter("vgpu.launches").value() > 0 &&
                    obs::Tracer::global().size() > 0,
                "the launch hook counted launches and the trace has spans");

  // Same numbers as the table and the tab3.* gauges, in the shared
  // BenchReport schema (modeled bandwidths are deterministic: gated).
  obs::BenchReport report("tab3_sdh_bw");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    obs::BenchEntry& e =
        report.entry(kernels::to_string(variants[i]), target_n, "model");
    e.metric("seconds", reports[i].seconds, obs::Better::Lower);
    e.metric("bw_shared", reports[i].bw_shared, obs::Better::Higher);
    e.metric("bw_l2", reports[i].bw_l2, obs::Better::Higher);
    e.metric("bw_roc", reports[i].bw_roc, obs::Better::Higher);
    e.metric("bw_dram", reports[i].bw_dram, obs::Better::Higher);
    e.report = reports[i];
    e.has_report = true;
  }
  write_report(report, out_dir);
  return checks.finish();
}
