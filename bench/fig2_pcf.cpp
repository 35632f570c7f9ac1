// Paper Fig. 2: 2-PCF total running time and speedup over the Naive kernel
// for Naive / SHM-SHM / Register-SHM / Register-ROC, N = 1k .. 2M uniform.
//
// Paper's qualitative claims this bench verifies:
//  * running time grows quadratically with N;
//  * Register-SHM is fastest (avg speedup ~5.5x over Naive),
//    SHM-SHM close behind (~5.3x), Register-ROC last of the cached
//    kernels (~4.7x) — order: Reg-SHM > SHM-SHM > Reg-ROC > Naive.
#include <cstdio>
#include <iostream>

#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/pcf.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;
  using kernels::PcfVariant;

  std::printf("=== Fig. 2: 2-PCF kernel comparison ===\n\n");

  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  const int B = 256;
  const double radius = 2.0;
  const auto make_runner = [&](PcfVariant v) {
    return [&stream, v, radius](std::size_t n) {
      const auto pts = uniform_box(n, 10.0f, 42);
      return kernels::run_pcf(stream, pts, radius, v, 256).stats;
    };
  };
  (void)B;

  const auto ns = paper_sizes();
  const Sweep naive = sweep("Naive", ns, kSimLimit, kCalibSizes, dev.spec(),
                            make_runner(PcfVariant::Naive));
  const Sweep shm = sweep("SHM-SHM", ns, kSimLimit, kCalibSizes, dev.spec(),
                          make_runner(PcfVariant::ShmShm));
  const Sweep reg = sweep("Register-SHM", ns, kSimLimit, kCalibSizes,
                          dev.spec(), make_runner(PcfVariant::RegShm));
  const Sweep roc = sweep("Register-ROC", ns, kSimLimit, kCalibSizes,
                          dev.spec(), make_runner(PcfVariant::RegRoc));

  TextTable t({"N", "src", "Naive", "SHM-SHM", "Reg-SHM", "Reg-ROC",
               "spd SHM-SHM", "spd Reg-SHM", "spd Reg-ROC"});
  for (std::size_t i = 0; i < ns.size(); ++i) {
    t.add_row({TextTable::num(ns[i] / 1000.0, 0) + "k",
               naive.extrapolated[i] ? "model" : "sim",
               fmt_time(naive.seconds[i]), fmt_time(shm.seconds[i]),
               fmt_time(reg.seconds[i]), fmt_time(roc.seconds[i]),
               TextTable::num(naive.seconds[i] / shm.seconds[i], 2),
               TextTable::num(naive.seconds[i] / reg.seconds[i], 2),
               TextTable::num(naive.seconds[i] / roc.seconds[i], 2)});
  }
  t.print(std::cout);

  print_ascii_chart(std::cout, "Fig.2(left): 2-PCF running time vs N", ns,
                    {{"Naive", naive.seconds},
                     {"SHM-SHM", shm.seconds},
                     {"Reg-SHM", reg.seconds},
                     {"Reg-ROC", roc.seconds}},
                    /*log_y=*/true);

  std::printf("\npaper claims vs measured shape:\n");
  ShapeChecks checks;
  const std::size_t last = ns.size() - 1;
  checks.expect(reg.seconds[last] < shm.seconds[last],
                "Register-SHM beats SHM-SHM at 2M (paper: narrow margin)");
  checks.expect(shm.seconds[last] < roc.seconds[last],
                "SHM-SHM beats Register-ROC (paper: 5.3x vs 4.7x)");
  checks.expect(roc.seconds[last] < naive.seconds[last],
                "Register-ROC beats Naive");
  const double spd_reg = naive.seconds[last] / reg.seconds[last];
  checks.expect(spd_reg > 3.0 && spd_reg < 12.0,
                "Register-SHM speedup over Naive in the paper's ballpark "
                "(~5-6x); measured " +
                    TextTable::num(spd_reg, 2) + "x");
  // Quadratic growth: time(2M)/time(800k) ~ (2.0/0.8)^2 = 6.25.
  const double growth = reg.seconds[last] / reg.seconds[4];
  checks.expect(growth > 4.0 && growth < 9.0,
                "quadratic growth in N (2M/800k ratio ~6.25; measured " +
                    TextTable::num(growth, 2) + ")");

  obs::BenchReport report("fig2_pcf");
  for (const Sweep* s : {&naive, &shm, &reg, &roc})
    add_sweep(report, *s, ns);
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
