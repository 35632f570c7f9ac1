// Paper Fig. 9: tiling with the shuffle instruction (Sec. IV-E2) vs the
// cache-based kernels, SDH workload, speedup over the CPU baseline.
//
// Paper's qualitative claim: the shuffle kernel performs almost the same
// as tiling with shared memory / read-only cache, making it a viable
// alternative when both caches are busy.
#include <cstdio>
#include <iostream>

#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/sdh.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;
  using kernels::SdhVariant;

  std::printf("=== Fig. 9: shuffle-instruction tiling ===\n\n");
  std::printf("calibrating CPU model from a real cpubase run...\n");
  const auto cpu = calibrate_cpu();
  std::printf("per-pair CPU cost: %.2f ns*core\n\n", cpu.pair_cost() * 1e9);

  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  const int buckets = 256;
  const auto make_runner = [&](SdhVariant v) {
    return [&stream, v, buckets](std::size_t n) {
      const auto pts = uniform_box(n, 10.0f, 42);
      const double width = pts.max_possible_distance() / buckets + 1e-4;
      return kernels::run_sdh(stream, pts, width, buckets, v, 256).stats;
    };
  };

  const auto ns = paper_sizes();
  const Sweep shm = sweep("Reg-SHM-Out", ns, kSimLimit, kCalibSizes,
                          dev.spec(), make_runner(SdhVariant::RegShmOut));
  const Sweep roc = sweep("Reg-ROC-Out", ns, kSimLimit, kCalibSizes,
                          dev.spec(), make_runner(SdhVariant::RegRocOut));
  const Sweep shuffle = sweep("Shuffle", ns, kSimLimit, kCalibSizes,
                              dev.spec(), make_runner(SdhVariant::ShuffleOut));

  TextTable t({"N", "src", "CPU(8-core)", "Reg-SHM-Out", "Reg-ROC-Out",
               "Shuffle", "spd shm", "spd roc", "spd shuffle"});
  std::vector<double> cpu_times;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const double c = cpu.paper_cpu_seconds(ns[i]);
    cpu_times.push_back(c);
    t.add_row({TextTable::num(ns[i] / 1000.0, 0) + "k",
               shm.extrapolated[i] ? "model" : "sim", fmt_time(c),
               fmt_time(shm.seconds[i]), fmt_time(roc.seconds[i]),
               fmt_time(shuffle.seconds[i]),
               TextTable::num(c / shm.seconds[i], 1) + "x",
               TextTable::num(c / roc.seconds[i], 1) + "x",
               TextTable::num(c / shuffle.seconds[i], 1) + "x"});
  }
  t.print(std::cout);

  print_ascii_chart(std::cout, "Fig.9(left): SDH running time vs N", ns,
                    {{"CPU", cpu_times},
                     {"Reg-SHM-Out", shm.seconds},
                     {"Reg-ROC-Out", roc.seconds},
                     {"Shuffle", shuffle.seconds}},
                    /*log_y=*/true);

  std::printf("\npaper claims vs measured shape:\n");
  ShapeChecks checks;
  const std::size_t last = ns.size() - 1;
  const double ratio_shm = shuffle.seconds[last] / shm.seconds[last];
  const double ratio_roc = shuffle.seconds[last] / roc.seconds[last];
  checks.expect(ratio_shm > 0.6 && ratio_shm < 1.7,
                "shuffle tiling performs about the same as shared-memory "
                "tiling (measured ratio " +
                    TextTable::num(ratio_shm, 2) + ")");
  checks.expect(ratio_roc > 0.6 && ratio_roc < 1.7,
                "shuffle tiling performs about the same as read-only-cache "
                "tiling (measured ratio " +
                    TextTable::num(ratio_roc, 2) + ")");
  checks.expect(cpu_times[last] / shuffle.seconds[last] > 10.0,
                "shuffle kernel keeps the >10x advantage over the CPU "
                "(paper Fig. 9 right: 40-50x)");

  obs::BenchReport report("fig9_shuffle");
  for (const Sweep* s : {&shm, &roc, &shuffle}) add_sweep(report, *s, ns);
  for (std::size_t i = 0; i < ns.size(); ++i)
    report.entry("CPU-8core", ns[i], "wall")
        .metric("seconds", cpu_times[i], obs::Better::Lower, /*gate=*/false);
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
