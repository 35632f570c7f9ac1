// Heterogeneous placement bench: for each problem size, where is SDH
// cheapest — the simulated GPU (Eqs. 2–7 model), the multicore CPU
// (calibrated throughput model, tree path included), or wherever the
// planner's backend-set pricing puts it?
//
// Every number is a *model* output, not wall clock: the CPU backend's
// per-pair cost is pinned (Config::pair_cost_seconds) and its thread count
// fixed, so the whole table is deterministic across hosts and every metric
// is gate=true. Seed the committed baseline with:
//   ./build/bench/hetero_placement --out <dir>
//   ./build/bench/check_regression <dir>/BENCH_hetero.json --update-baseline
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "common/table.hpp"
#include "core/planner.hpp"
#include "harness.hpp"
#include "kernels/registry.hpp"
#include "vgpu/device.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;

  std::printf("=== Heterogeneous placement: cpu vs vgpu vs planner-auto "
              "(SDH) ===\n\n");

  vgpu::Device dev;
  backend::VgpuBackend vgpu_be(dev);
  // What the simulator executes for the planner: warp instructions do not
  // depend on where the host put the buffers (tests/backend/
  // test_counter_pins.cpp), so one plan's sum repeats exactly. The
  // calibration launches run on cold twins of `dev` on the planner's
  // threads, which all report here, so the sum is atomic.
  std::atomic<std::uint64_t> warp_instructions{0};
  dev.set_launch_observer([&warp_instructions](const vgpu::LaunchRecord& r) {
    warp_instructions.fetch_add(r.stats->warp_instructions,
                                std::memory_order_relaxed);
  });
  std::uint64_t calibration_warp_instructions = 0;

  // Pinned CPU cost model: a fixed per-pair cost and thread count make the
  // CPU estimates (and therefore the auto placement) deterministic, so the
  // regression gate can enforce them like any other modeled number.
  backend::CpuBackend::Config cpu_cfg;
  cpu_cfg.threads = 8;
  cpu_cfg.pair_cost_seconds = 1e-9;
  backend::CpuBackend cpu_be(cpu_cfg);

  // Clustered sample + wide buckets: the regime where Tree-SDH's bulk
  // node-pair resolution pays off (far-apart blobs resolve whole node
  // pairs into one bucket), so the CPU substrate can win the largest
  // sizes while the vgpu's quadratic kernels keep the small ones.
  const PointsSoA sample =
      gaussian_clusters(4096, /*k=*/8, 10.0f, /*sigma=*/0.2f, /*seed=*/42);
  const int buckets = 4;
  const double width = sample.max_possible_distance() / buckets + 1e-4;
  const kernels::ProblemDesc desc = kernels::ProblemDesc::sdh(width, buckets);

  obs::BenchReport report("hetero");
  TextTable t({"N", "cpu (model)", "vgpu (model)", "auto picks", "variant",
               "auto (model)"});
  bool auto_is_min = true;
  bool smallest_on_vgpu = false;
  bool largest_on_cpu_tree = false;
  for (const double n : {2048.0, 16384.0, 131072.0, 1048576.0}) {
    backend::IBackend* cpu_only[] = {&cpu_be};
    backend::IBackend* vgpu_only[] = {&vgpu_be};
    backend::IBackend* both[] = {&cpu_be, &vgpu_be};
    const core::Plan pc = core::plan(cpu_only, sample, desc, n);
    warp_instructions = 0;
    const core::Plan pv = core::plan(vgpu_only, sample, desc, n);
    if (n == 2048.0) calibration_warp_instructions = warp_instructions.load();
    const core::Plan pa = core::plan(both, sample, desc, n);

    report.entry("cpu", n, "model")
        .metric("seconds", pc.predicted_seconds, obs::Better::Lower);
    report.entry("vgpu", n, "model")
        .metric("seconds", pv.predicted_seconds, obs::Better::Lower);
    obs::BenchEntry& ea = report.entry("auto", n, "model");
    ea.metric("seconds", pa.predicted_seconds, obs::Better::Lower);
    ea.metric("placed_on_cpu",
              pa.backend == backend::Kind::Cpu ? 1.0 : 0.0,
              obs::Better::Higher);

    if (n == 2048.0) smallest_on_vgpu = pa.backend == backend::Kind::Vgpu;
    if (n == 1048576.0)
      largest_on_cpu_tree = pa.backend == backend::Kind::Cpu &&
                            std::string(pa.kernel->name) == "Tree-SDH";
    auto_is_min = auto_is_min &&
                  pa.predicted_seconds <=
                      std::min(pc.predicted_seconds, pv.predicted_seconds) *
                          (1.0 + 1e-9);
    t.add_row({TextTable::num(n, 0), fmt_time(pc.predicted_seconds),
               fmt_time(pv.predicted_seconds),
               backend::to_string(pa.backend), pa.kernel->name,
               fmt_time(pa.predicted_seconds)});
  }
  t.print(std::cout);
  std::printf("\none vgpu plan's calibration simulates %llu warp "
              "instructions\n",
              static_cast<unsigned long long>(calibration_warp_instructions));
  report.entry("vgpu_calibration", static_cast<double>(sample.size()), "sim")
      .metric("warp_instructions",
              static_cast<double>(calibration_warp_instructions),
              obs::Better::Lower);

  std::printf("\nshape checks:\n");
  ShapeChecks checks;
  checks.expect(auto_is_min,
                "planner-auto never prices above the best single backend");
  // The CPU catalogue must include the sub-quadratic tree path — the whole
  // reason the CPU substrate can win an SDH regime at all.
  const bool tree_considered = [&] {
    backend::IBackend* cpu_only[] = {&cpu_be};
    const core::Plan p = core::plan(cpu_only, sample, desc, 16384.0);
    for (const core::Candidate& c : p.considered)
      if (c.name.find("Tree-SDH") != std::string::npos) return true;
    return false;
  }();
  checks.expect(tree_considered, "Tree-SDH priced among the CPU candidates");
  checks.expect(smallest_on_vgpu && largest_on_cpu_tree,
                "placement splits: vgpu wins the smallest size, the CPU "
                "tree path wins the largest");
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
