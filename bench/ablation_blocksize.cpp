// Ablation: block (= tile) size sweep for the SDH kernels.
//
// The paper fixes threads-per-block at 1024 citing its prior optimization
// model [23]. This bench exposes the actual trade-off on the simulated
// device: bigger tiles amortize global loads over more pairs, but shrink
// occupancy once the tile + private histogram press on shared memory.
#include <cstdio>
#include <iostream>

#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/sdh.hpp"
#include "perfmodel/occupancy.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;
  using kernels::SdhVariant;

  std::printf("=== Ablation: block size sweep (Reg-SHM-Out, N = 400k) "
              "===\n\n");

  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  const int buckets = 256;
  const double target_n = 400'000;
  const std::vector<int> block_sizes = {64, 128, 256, 512, 1024};

  TextTable t({"B", "occupancy", "limiter", "bottleneck", "time (model)"});
  obs::BenchReport report("ablation_blocksize");
  std::vector<double> times;
  for (const int B : block_sizes) {
    const auto runner = [&, B](std::size_t nn) {
      const auto pts = uniform_box(nn, 10.0f, 42);
      const double width = pts.max_possible_distance() / buckets + 1e-4;
      return kernels::run_sdh(stream, pts, width, buckets,
                              SdhVariant::RegShmOut, B)
          .stats;
    };
    // Calibration sizes must be multiples of B; use 8B, 16B, 32B.
    const std::array<double, 3> calib = {8.0 * B, 16.0 * B, 32.0 * B};
    std::string variant = "B";
    variant += std::to_string(B);
    const Sweep s =
        sweep(variant, {target_n}, 32.0 * B, calib, dev.spec(), runner);
    const auto occ = perfmodel::occupancy(
        dev.spec(), B,
        kernels::sdh_shared_bytes(SdhVariant::RegShmOut, B, buckets), 32);
    times.push_back(s.seconds[0]);
    obs::BenchEntry& e = report.entry(variant, target_n, "model");
    e.metric("seconds", s.seconds[0], obs::Better::Lower);
    e.metric("occupancy", occ.occupancy, obs::Better::Higher);
    e.report = s.reports[0];
    e.has_report = true;
    t.add_row({std::to_string(B),
               TextTable::num(100 * occ.occupancy, 0) + "%", occ.limiter,
               s.reports[0].bottleneck, fmt_time(s.seconds[0])});
  }
  t.print(std::cout);

  std::printf("\nshape checks:\n");
  ShapeChecks checks;
  // Tiny blocks pay more global traffic (more tile reloads): B=64 should
  // not beat the best configuration.
  const double best = *std::min_element(times.begin(), times.end());
  checks.expect(times[0] >= best,
                "B=64 is never the best configuration (tile reuse too low)");
  checks.expect(best > 0, "sweep produced valid times");
  // The best block size should be a middle-to-large one.
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < times.size(); ++i)
    if (times[i] == best) best_idx = i;
  checks.expect(block_sizes[best_idx] >= 128,
                "optimum at B >= 128 (paper uses large blocks; measured "
                "optimum B=" +
                    std::to_string(block_sizes[best_idx]) + ")");
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
