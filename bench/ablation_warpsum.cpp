// Ablation: Type-I output stage — per-thread coalesced stores (the
// paper's choice) vs a warp-level shuffle-butterfly reduction that stores
// once per warp. Extends the paper's register-content-sharing idea
// (Sec. IV-E2) to the output stage.
//
// Expected shape: for 2-PCF the output stage is a vanishing share of the
// quadratic work, so both strategies perform ~identically at scale — the
// warp reduction matters only when output traffic is comparable to the
// pairwise work (tiny N), which is exactly what this table shows.
#include <cstdio>
#include <iostream>

#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/pcf.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;

  std::printf("=== Ablation: Type-I output via warp shuffle reduction "
              "===\n\n");

  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  const double radius = 2.0;

  TextTable t({"N", "stores/thread", "stores/warp", "per-thread time",
               "warp-sum time", "ratio"});
  obs::BenchReport report("ablation_warpsum");
  std::vector<double> ratios;
  for (const std::size_t n : {512u, 2048u, 4096u}) {
    const auto pts = uniform_box(n, 10.0f, 99);
    const auto thread_out = kernels::run_pcf(stream, pts, radius,
                                             kernels::PcfVariant::RegShm, 128);
    const auto warp_out = kernels::run_pcf_warpsum(stream, pts, radius, 128);
    if (thread_out.pairs_within != warp_out.pairs_within) {
      std::printf("FATAL: result mismatch at N=%zu\n", n);
      return 1;
    }
    const double ts =
        perfmodel::model_time(dev.spec(), thread_out.stats).seconds;
    const double ws =
        perfmodel::model_time(dev.spec(), warp_out.stats).seconds;
    ratios.push_back(ts / ws);
    obs::BenchEntry& ep =
        report.entry("per-thread", static_cast<double>(n), "sim");
    ep.metric("seconds", ts, obs::Better::Lower);
    ep.stats = thread_out.stats;
    ep.has_stats = true;
    obs::BenchEntry& ew =
        report.entry("warp-sum", static_cast<double>(n), "sim");
    ew.metric("seconds", ws, obs::Better::Lower);
    ew.stats = warp_out.stats;
    ew.has_stats = true;
    t.add_row({std::to_string(n),
               std::to_string(thread_out.stats.global_stores),
               std::to_string(warp_out.stats.global_stores), fmt_time(ts),
               fmt_time(ws), TextTable::num(ts / ws, 3)});
  }
  t.print(std::cout);

  std::printf("\nshape checks:\n");
  ShapeChecks checks;
  checks.expect(ratios.back() > 0.9 && ratios.back() < 1.15,
                "at scale the strategies tie (output is a vanishing share "
                "of quadratic work; measured ratio " +
                    TextTable::num(ratios.back(), 3) + ")");
  checks.expect(true, "results identical across strategies (checked)");
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
