// Paper Table IV: utilization of GPU resources running the SDH kernels.
//
//   Kernel        arith  control  memory
//   Naive         5%     n/a      Max (L2)
//   Naive-Out     23%    5%       Max (L2)
//   Reg-SHM-Out   25%    5%       95% (shared)
//   Reg-ROC-Out   20%    5%       86% shared + 27% ROC
//
// Shape: every SDH kernel is memory-bound (unlike 2-PCF); privatized tiled
// kernels saturate shared memory; naive ones saturate the L2/global path.
#include <cstdio>
#include <iostream>

#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/registry.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;

  std::printf("=== Table IV: SDH resource utilization ===\n\n");

  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  const double target_n = 400'000;  // paper-scale run via extrapolation
  const int buckets = 256;
  std::printf("(counters calibrated at N<=4096, reported at N=%.0fk)\n\n",
              target_n / 1000);

  // Kernels come from the registry by their paper names — the same table
  // the planner enumerates, so the bench can never drift out of sync.
  struct Row {
    const char* name;
    const char* paper;
  };
  const Row rows[] = {
      {"Naive", "5% arith, Max(L2)"},
      {"Naive-Out", "23% arith, Max(L2)"},
      {"Reg-SHM-Out", "25% arith, 95% shm"},
      {"Reg-ROC-Out", "20% arith, 86% shm + 27% roc"},
  };
  const auto& registry = kernels::KernelRegistry::instance();

  TextTable t({"kernel", "arith", "ctrl", "shared", "l2", "roc",
               "bottleneck", "paper"});
  std::vector<perfmodel::TimeReport> reports;
  for (const auto& row : rows) {
    const kernels::KernelVariant* kv =
        registry.find(kernels::ProblemType::Sdh, row.name);
    if (kv == nullptr) {
      std::printf("FATAL: kernel '%s' not in registry\n", row.name);
      return 1;
    }
    const auto rep = report_at(
        dev.spec(), kCalibSizes,
        [&stream, kv, buckets](std::size_t n) {
          const auto pts = uniform_box(n, 10.0f, 42);
          const double width = pts.max_possible_distance() / buckets + 1e-4;
          const auto desc = kernels::ProblemDesc::sdh(width, buckets);
          kernels::KernelOutput sink;
          return kv->launch(stream, pts, desc, 256, sink);
        },
        target_n);
    reports.push_back(rep);
    t.add_row({kv->name,
               TextTable::num(100 * rep.util_arith(), 0) + "%",
               TextTable::num(100 * rep.util_control(), 0) + "%",
               TextTable::num(100 * rep.util_shared(), 0) + "%",
               TextTable::num(100 * rep.util_l2(), 0) + "%",
               TextTable::num(100 * rep.util_roc(), 0) + "%",
               rep.bottleneck, row.paper});
  }
  t.print(std::cout);

  std::printf("\npaper claims vs measured shape:\n");
  ShapeChecks checks;
  const auto& naive = reports[0];
  const auto& naive_out = reports[1];
  const auto& shm_out = reports[2];
  const auto& roc_out = reports[3];
  checks.expect(naive.bottleneck != "arithmetic",
                "Naive SDH is memory/atomics-bound, not compute-bound");
  checks.expect(naive.util_arith() < 0.35,
                "Naive's arithmetic pipes are mostly idle (paper: 5%)");
  checks.expect(shm_out.bottleneck == "shared-memory",
                "Reg-SHM-Out is shared-memory bound (paper: 95% shm)");
  checks.expect(roc_out.util_shared() > 0.5,
                "Reg-ROC-Out keeps shared memory busy (paper: 86%)");
  checks.expect(roc_out.util_roc() > 0.05 &&
                    roc_out.util_roc() < roc_out.util_shared(),
                "Reg-ROC-Out adds moderate ROC load below its shared load "
                "(paper: 27% roc vs 86% shm)");
  checks.expect(naive_out.util_arith() > naive.util_arith(),
                "output privatization alone lifts arithmetic utilization "
                "(paper: 5% -> 23%)");
  checks.expect(shm_out.bottleneck != "arithmetic" &&
                    roc_out.bottleneck != "arithmetic",
                "SDH never becomes compute-bound, unlike 2-PCF "
                "(paper contrast between Tables II and IV)");

  obs::BenchReport report("tab4_sdh_util");
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
