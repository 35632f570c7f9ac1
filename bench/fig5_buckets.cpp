// Paper Fig. 5: Reg-ROC-Out running time and occupancy vs histogram bucket
// count (N = 512k).
//
// Paper's qualitative claims:
//  * running time increases with output size *as a step function*, because
//    the private histogram's shared-memory footprint steps occupancy down;
//  * very small outputs also degrade performance — atomic contention: many
//    threads compete for few buckets.
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

  std::printf("=== Fig. 5: Reg-ROC-Out vs histogram size (N = 512k) ===\n\n");

  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  const double target_n = 512'000;
  const int B = 256;
  const std::vector<int> bucket_counts = {16,   64,   250,  500,  1000,
                                          1500, 2000, 2500, 3000, 3500,
                                          4000, 4500, 5000};

  TextTable t({"buckets", "shared/block", "occupancy", "blocks/SM",
               "limiter", "time (model)"});
  obs::BenchReport report("fig5_buckets");
  std::vector<double> xs, times, occs;
  for (const int buckets : bucket_counts) {
    const auto runner = [&, buckets](std::size_t n) {
      const auto pts = uniform_box(n, 10.0f, 42);
      const double width = pts.max_possible_distance() / buckets + 1e-4;
      return kernels::run_sdh(stream, pts, width, buckets,
                              kernels::SdhVariant::RegRocOut, B)
          .stats;
    };
    const Sweep s = sweep("RegRocOut", {target_n}, kSimLimit, kCalibSizes,
                          dev.spec(), runner);
    const auto occ = perfmodel::occupancy(
        dev.spec(), B, static_cast<std::size_t>(buckets) * 4, 32);
    xs.push_back(buckets);
    times.push_back(s.seconds[0]);
    occs.push_back(occ.occupancy * 100);
    // Entry per bucket count; n carries the x-axis (the bucket count).
    obs::BenchEntry& e = report.entry("RegRocOut", buckets, "model");
    e.metric("seconds", s.seconds[0], obs::Better::Lower);
    e.metric("occupancy", occ.occupancy, obs::Better::Higher);
    e.report = s.reports[0];
    e.has_report = true;
    t.add_row({std::to_string(buckets),
               std::to_string(buckets * 4) + " B",
               TextTable::num(100 * occ.occupancy, 0) + "%",
               std::to_string(occ.blocks_per_sm), occ.limiter,
               fmt_time(s.seconds[0])});
  }
  t.print(std::cout);

  print_ascii_chart(std::cout, "Fig.5(left): time vs buckets", xs,
                    {{"time", times}}, /*log_y=*/false);
  print_ascii_chart(std::cout, "Fig.5(right): occupancy vs buckets", xs,
                    {{"occupancy%", occs}}, /*log_y=*/false);

  std::printf("\npaper claims vs measured shape:\n");
  ShapeChecks checks;
  // Occupancy non-increasing in bucket count.
  bool monotone = true;
  for (std::size_t i = 1; i < occs.size(); ++i)
    if (occs[i] > occs[i - 1] + 1e-9) monotone = false;
  checks.expect(monotone, "occupancy is non-increasing in output size");
  // Step function: distinct occupancy plateaus exist.
  int distinct = 1;
  for (std::size_t i = 1; i < occs.size(); ++i)
    if (occs[i] != occs[i - 1]) ++distinct;
  checks.expect(distinct >= 3,
                "occupancy steps through >= 3 plateaus over 16..5000 "
                "buckets (measured " +
                    std::to_string(distinct) + ")");
  // Time grows from the 1000-bucket level to the 5000-bucket level.
  const double t_1000 = times[4];
  const double t_5000 = times.back();
  checks.expect(t_5000 > t_1000,
                "running time increases with output size (paper Fig. 5 "
                "left)");
  // Contention at the very small end: 16 buckets slower than 250.
  checks.expect(times[0] > times[2],
                "too-small outputs suffer atomic contention (paper: "
                "degraded performance when output is too small); "
                "t(16 buckets) = " +
                    fmt_time(times[0]) + " vs t(250) = " + fmt_time(times[2]));
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
