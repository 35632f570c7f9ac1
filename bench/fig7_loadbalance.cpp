// Paper Fig. 7: the load-balancing technique for the intra-block loop
// (Sec. IV-E1). The paper records the intra-block computation time of
// Register-SHM before and after applying the technique and reports a
// 1.04-1.14x end-to-end speedup curve over N up to 3M.
//
// We report both views: the isolated intra-block phase (where the balanced
// pairing halves the critical path of each block) and the end-to-end time
// (where the phase is a small share, so the gain is modest — the paper's
// 4-14% regime).
#include <cstdio>
#include <iostream>

#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/sdh.hpp"
#include "perfmodel/counts.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;
  using kernels::SdhVariant;

  std::printf("=== Fig. 7: load-balanced intra-block computation ===\n\n");

  vgpu::Device dev;
  vgpu::Stream stream(dev);  // blocks run on the block queue
  const int buckets = 256;
  const int B = 256;
  const auto runner_for = [&](SdhVariant v) {
    return [&stream, v, buckets](std::size_t n) {
      const auto pts = uniform_box(n, 10.0f, 42);
      const double width = pts.max_possible_distance() / buckets + 1e-4;
      return kernels::run_sdh(stream, pts, width, buckets, v, B).stats;
    };
  };

  // Intra-block phase cycles come from the stats' phase accounting; we
  // need them at each size, so sweep the raw stats rather than times.
  const std::vector<double> ns = {1024,     4096,      400'000,
                                  1'000'000, 2'000'000, 3'000'000};

  std::array<vgpu::KernelStats, 3> cal_plain, cal_lb;
  for (int i = 0; i < 3; ++i) {
    cal_plain[static_cast<std::size_t>(i)] = runner_for(
        SdhVariant::RegShmOut)(static_cast<std::size_t>(kCalibSizes[
        static_cast<std::size_t>(i)]));
    cal_lb[static_cast<std::size_t>(i)] = runner_for(SdhVariant::RegShmLb)(
        static_cast<std::size_t>(kCalibSizes[static_cast<std::size_t>(i)]));
  }
  const perfmodel::StatsPoly poly_plain(kCalibSizes, cal_plain);
  const perfmodel::StatsPoly poly_lb(kCalibSizes, cal_lb);

  TextTable t({"N", "src", "intra plain", "intra LB", "intra spd",
               "total plain", "total LB", "total spd"});
  obs::BenchReport report("fig7_loadbalance");
  std::vector<double> total_spd, intra_spd;
  for (const double n : ns) {
    const bool extrap = n > kSimLimit;
    const auto plain = extrap
                           ? poly_plain.predict(n)
                           : runner_for(SdhVariant::RegShmOut)(
                                 static_cast<std::size_t>(n));
    const auto lb = extrap ? poly_lb.predict(n)
                           : runner_for(SdhVariant::RegShmLb)(
                                 static_cast<std::size_t>(n));
    const auto rp = perfmodel::model_time(dev.spec(), plain);
    const auto rl = perfmodel::model_time(dev.spec(), lb);
    // Intra-block work is constant per block, i.e. exactly linear in the
    // block count — extrapolate it by scaling the largest calibration
    // sample rather than trusting a quadratic fit on a linear quantity.
    const auto intra_cycles = [&](const vgpu::KernelStats& s,
                                  const vgpu::KernelStats& big_calib) {
      if (!extrap) return s.phase(vgpu::Phase::IntraBlock);
      const double blocks = std::ceil(n / B);
      const double calib_blocks =
          std::ceil(kCalibSizes[2] / B);
      return big_calib.phase(vgpu::Phase::IntraBlock) * blocks /
             calib_blocks;
    };
    // Phase share converts total modeled time into per-phase time.
    const double intra_p = rp.seconds * intra_cycles(plain, cal_plain[2]) /
                           std::max(1.0, plain.total_warp_cycles);
    const double intra_l = rl.seconds * intra_cycles(lb, cal_lb[2]) /
                           std::max(1.0, lb.total_warp_cycles);
    intra_spd.push_back(intra_p / intra_l);
    total_spd.push_back(rp.seconds / rl.seconds);
    const char* src = extrap ? "model" : "sim";
    obs::BenchEntry& ep = report.entry("RegShmOut", n, src);
    ep.metric("seconds", rp.seconds, obs::Better::Lower);
    ep.metric("intra_seconds", intra_p, obs::Better::Lower);
    ep.report = rp;
    ep.has_report = true;
    obs::BenchEntry& el = report.entry("RegShmLb", n, src);
    el.metric("seconds", rl.seconds, obs::Better::Lower);
    el.metric("intra_seconds", intra_l, obs::Better::Lower);
    el.report = rl;
    el.has_report = true;
    t.add_row({TextTable::num(n / 1000.0, 0) + "k", extrap ? "model" : "sim",
               fmt_time(intra_p), fmt_time(intra_l),
               TextTable::num(intra_p / intra_l, 2) + "x",
               fmt_time(rp.seconds), fmt_time(rl.seconds),
               TextTable::num(rp.seconds / rl.seconds, 3) + "x"});
  }
  t.print(std::cout);

  std::printf("\npaper claims vs measured shape:\n");
  ShapeChecks checks;
  bool all_intra_faster = true;
  for (const double s : intra_spd)
    if (s <= 1.0) all_intra_faster = false;
  checks.expect(all_intra_faster,
                "balanced pairing speeds up the intra-block phase at every "
                "size");
  checks.expect(intra_spd[0] > 1.5,
                "single-ish-block regime shows the full ~2x intra-block "
                "gain (measured " +
                    TextTable::num(intra_spd[0], 2) + "x)");
  // The paper reports 1.04-1.14x end-to-end over its N range; our model
  // shows that band at small/mid N and predicts the gain fades as the
  // intra-block share vanishes (documented in EXPERIMENTS.md).
  checks.expect(total_spd[1] > 1.02 && total_spd[1] < 1.25,
                "mid-size end-to-end speedup lands in the paper's band "
                "(paper: 1.04-1.14x; measured " +
                    TextTable::num(total_spd[1], 3) + "x at 4k)");
  bool never_slower = true;
  for (const double s : total_spd)
    if (s < 0.995) never_slower = false;
  checks.expect(never_slower,
                "load balancing never makes the kernel slower");
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
