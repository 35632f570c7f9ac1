// Paper Table II: utilization of GPU resources running the 2-PCF kernels.
//
//   Kernel    arith  control  memory (unit)
//   Naive     15%    3%       76% (L2)
//   SHM-SHM   50%    7%       35% (shared)
//   Reg-SHM   52%    11%      35% (shared)
//   Reg-ROC   24%    10%      65% (data cache)
//
// We reproduce the *shape*: the cached kernels are compute-dominated with
// far higher arithmetic utilization than Naive; Naive is L2-bound;
// Reg-ROC's binding memory unit is the read-only cache.
#include <cstdio>
#include <iostream>

#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/registry.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;

  std::printf("=== Table II: 2-PCF resource utilization ===\n\n");

  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  const double target_n = 400'000;  // paper-scale run via extrapolation
  std::printf("(counters calibrated at N<=4096, reported at N=%.0fk)\n\n",
              target_n / 1000);

  // Kernels come from the registry by their paper names — the same table
  // the planner enumerates, so the bench can never drift out of sync.
  struct Row {
    const char* name;
    double paper_arith, paper_ctrl;
    const char* paper_mem;
  };
  const Row rows[] = {
      {"Naive", 0.15, 0.03, "76% (L2)"},
      {"SHM-SHM", 0.50, 0.07, "35% (shared)"},
      {"Register-SHM", 0.52, 0.11, "35% (shared)"},
      {"Register-ROC", 0.24, 0.10, "65% (data cache)"},
  };
  const auto& registry = kernels::KernelRegistry::instance();

  TextTable t({"kernel", "arith", "ctrl", "bottleneck", "shared", "l2",
               "roc", "paper arith", "paper mem"});
  std::vector<perfmodel::TimeReport> reports;
  for (const auto& row : rows) {
    const kernels::KernelVariant* kv =
        registry.find(kernels::ProblemType::Pcf, row.name);
    if (kv == nullptr) {
      std::printf("FATAL: kernel '%s' not in registry\n", row.name);
      return 1;
    }
    const auto rep = report_at(
        dev.spec(), kCalibSizes,
        [&stream, kv](std::size_t n) {
          const auto pts = uniform_box(n, 10.0f, 42);
          const auto desc = kernels::ProblemDesc::pcf(2.0);
          kernels::KernelOutput sink;
          return kv->launch(stream, pts, desc, 256, sink);
        },
        target_n);
    reports.push_back(rep);
    t.add_row({kv->name,
               TextTable::num(100 * rep.util_arith(), 0) + "%",
               TextTable::num(100 * rep.util_control(), 0) + "%",
               rep.bottleneck,
               TextTable::num(100 * rep.util_shared(), 0) + "%",
               TextTable::num(100 * rep.util_l2(), 0) + "%",
               TextTable::num(100 * rep.util_roc(), 0) + "%",
               TextTable::num(100 * row.paper_arith, 0) + "%",
               row.paper_mem});
  }
  t.print(std::cout);

  std::printf("\npaper claims vs measured shape:\n");
  ShapeChecks checks;
  const auto& naive = reports[0];
  const auto& shmshm = reports[1];
  const auto& regshm = reports[2];
  const auto& regroc = reports[3];
  checks.expect(naive.bottleneck == "l2" || naive.bottleneck == "dram",
                "Naive is bound by the L2/global path (paper: 76% L2)");
  checks.expect(regshm.util_arith() > 2.5 * naive.util_arith(),
                "Reg-SHM arithmetic utilization far above Naive's "
                "(paper: 52% vs 15%)");
  checks.expect(shmshm.util_arith() > 2.5 * naive.util_arith(),
                "SHM-SHM arithmetic utilization far above Naive's");
  checks.expect(regroc.util_roc() > regroc.util_l2(),
                "Reg-ROC's busiest cache is the read-only cache "
                "(paper: 65% data cache)");
  checks.expect(regroc.util_arith() < regshm.util_arith(),
                "Reg-ROC arithmetic utilization below Reg-SHM "
                "(paper: 24% vs 52%)");
  checks.expect(shmshm.util_shared() > regshm.util_shared(),
                "SHM-SHM stresses shared memory more than Reg-SHM "
                "(Eq. 4 = 2 x Eq. 5)");

  obs::BenchReport report("tab2_pcf_util");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    obs::BenchEntry& e = report.entry(rows[i].name, target_n, "model");
    e.metric("seconds", reports[i].seconds, obs::Better::Lower);
    e.metric("util_arith", reports[i].util_arith(), obs::Better::Higher);
    e.report = reports[i];
    e.has_report = true;
  }
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
