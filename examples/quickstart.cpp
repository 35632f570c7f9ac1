// Quickstart: compute a spatial distance histogram (SDH) with the
// auto-planning framework, inspect the plan it chose, and print the
// profiler-style report the simulator produces.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "common/datagen.hpp"
#include "core/framework.hpp"
#include "perfmodel/timemodel.hpp"

int main() {
  using namespace tbs;

  // 1. Make a workload: 4096 points uniform in a 20^3 box (the paper's
  //    synthetic setup, scaled to quickstart size).
  const PointsSoA pts = uniform_box(4096, 20.0f, /*seed=*/42);

  // 2. Run the SDH through the framework. It classifies the output
  //    pattern (Type-II), prices every kernel variant with the analytical
  //    model, and runs the cheapest one on the simulated GPU.
  core::TwoBodyFramework fw;
  const int buckets = 64;
  const double width = pts.max_possible_distance() / buckets + 1e-4;
  const auto result = fw.sdh(pts, width, buckets);

  std::printf("SDH of %zu points, %d buckets (width %.3f)\n", pts.size(),
              buckets, width);
  if (fw.last_plan()) {
    const auto& plan = *fw.last_plan();
    std::printf("planner chose: %s, block size %d (predicted %.4f s)\n",
                plan.kernel->name.c_str(), plan.block_size,
                plan.predicted_seconds);
    std::printf("candidates considered: %zu\n", plan.considered.size());
  }

  // 3. Print a compact view of the histogram.
  std::printf("\n r-range          count\n");
  for (int b = 0; b < buckets; b += 8) {
    std::printf(" [%6.2f,%6.2f)  %llu\n", b * width, (b + 1) * width,
                static_cast<unsigned long long>(
                    result.hist[static_cast<std::size_t>(b)]));
  }
  std::printf(" total pairs: %llu (expect %zu)\n",
              static_cast<unsigned long long>(result.hist.total()),
              pts.size() * (pts.size() - 1) / 2);

  // 4. The profiler view: where did the (simulated) time go?
  const auto report = perfmodel::model_time(fw.device().spec(), result.stats);
  std::printf("\nmodeled kernel time: %.4f ms, bottleneck: %s\n",
              report.seconds * 1e3, report.bottleneck.c_str());
  std::printf("utilization: arith %.0f%%  shared %.0f%%  dram %.0f%%\n",
              100 * report.util_arith(), 100 * report.util_shared(),
              100 * report.util_dram());
  std::printf("occupancy: %.0f%% (%d blocks/SM, limiter: %s)\n",
              100 * report.occ.occupancy, report.occ.blocks_per_sm,
              report.occ.limiter);
  return 0;
}
