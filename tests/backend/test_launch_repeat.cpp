// A launch's counters depend on its own inputs only.
//
// Every registry variant with a vgpu functor (8 SDH, 4 PCF, Warpsum, kNN
// and 2 joins) runs on one fixed dataset: 700 points at block size 64, so
// the last of the 11 blocks is partial. Its KernelStats must compare equal
// in every field (KernelStats::operator==) across
//   * three launches of one input through one VgpuBackend;
//   * a copy of the input at other host addresses, on a fresh device;
//   * inline (Device&) and pooled (Stream&) launches through its kernel
//     entry point.
//
// The global-cursor join is compared inline only: its threads store their
// pairs at the slots a contended atomic cursor hands out, and pooled blocks
// draw from it in the order they run, so its store lines move from run to
// run (test_counter_pins.cpp documents the same).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "kernels/pcf.hpp"
#include "kernels/registry.hpp"
#include "kernels/sdh.hpp"
#include "kernels/type1.hpp"
#include "kernels/type3.hpp"
#include "vgpu/device.hpp"
#include "vgpu/stream.hpp"

namespace tbs {
namespace {

using kernels::KernelVariant;
using kernels::ProblemDesc;
using kernels::ProblemType;

constexpr std::size_t kPoints = 700;
constexpr int kBlock = 64;
constexpr int kBuckets = 32;
constexpr double kRadius = 1.5;
constexpr int kK = 4;

const PointsSoA& dataset() {
  static const PointsSoA pts = uniform_box(kPoints, 10.0f, /*seed=*/2016);
  return pts;
}

ProblemDesc desc_for(ProblemType t) {
  switch (t) {
    case ProblemType::Sdh:
      return ProblemDesc::sdh(
          dataset().max_possible_distance() / kBuckets + 1e-4, kBuckets);
    case ProblemType::Pcf: return ProblemDesc::pcf(kRadius);
    case ProblemType::Knn: return ProblemDesc::knn(kK);
    case ProblemType::Join: return ProblemDesc::join(kRadius);
  }
  return ProblemDesc::pcf(kRadius);
}

/// The registry variants with a vgpu functor, in registry order.
std::vector<const KernelVariant*> vgpu_variants() {
  std::vector<const KernelVariant*> out;
  for (const KernelVariant& v : kernels::KernelRegistry::instance().variants())
    if (v.supports(kernels::kBackendVgpu)) out.push_back(&v);
  return out;
}

std::string name_of(const KernelVariant& v) {
  return std::string(kernels::to_string(v.problem)) + "/" + v.name;
}

bool is_cursor_join(const KernelVariant& v) {
  return v.problem == ProblemType::Join &&
         v.variant_id == static_cast<int>(kernels::JoinVariant::GlobalCursor);
}

/// Run `v` through its kernel entry point: inline on a Device&, on the
/// block queue through a Stream&.
vgpu::KernelStats run_entry(vgpu::LaunchTarget target, const KernelVariant& v,
                            const PointsSoA& pts) {
  const ProblemDesc d = desc_for(v.problem);
  switch (v.problem) {
    case ProblemType::Sdh:
      return kernels::run_sdh(target, pts, d.bucket_width, d.buckets,
                              static_cast<kernels::SdhVariant>(v.variant_id),
                              kBlock)
          .stats;
    case ProblemType::Pcf:
      if (v.variant_id < 0)  // the warpsum extension has no PcfVariant
        return kernels::run_pcf_warpsum(target, pts, d.radius, kBlock).stats;
      return kernels::run_pcf(target, pts, d.radius,
                              static_cast<kernels::PcfVariant>(v.variant_id),
                              kBlock)
          .stats;
    case ProblemType::Knn:
      return kernels::run_knn(target, pts, d.k, kBlock).stats;
    case ProblemType::Join:
      return kernels::run_distance_join(
                 target, pts, d.radius,
                 static_cast<kernels::JoinVariant>(v.variant_id), kBlock)
          .stats;
  }
  return {};
}

/// One launch of `v` through `be`; the global-cursor join runs inline on
/// the backend's device instead.
vgpu::KernelStats launch(backend::VgpuBackend& be, const KernelVariant& v,
                         const PointsSoA& pts) {
  if (is_cursor_join(v)) return run_entry(be.device(), v, pts);
  kernels::KernelOutput sink;
  return be.launch(v, pts, desc_for(v.problem), kBlock, sink);
}

/// The fields cache state moves, for failure messages (operator== checks
/// them all).
std::string traffic(const vgpu::KernelStats& s) {
  return "dram_bytes " + std::to_string(s.dram_bytes) + ", l2_bytes " +
         std::to_string(s.l2_bytes) + ", roc_hit_bytes " +
         std::to_string(s.roc_hit_bytes) + ", total_warp_cycles " +
         std::to_string(s.total_warp_cycles);
}

TEST(LaunchRepeat, ThreeLaunchesOnOneBackendReadEqualCounters) {
  const std::vector<const KernelVariant*> variants = vgpu_variants();
  ASSERT_EQ(variants.size(), 16u);  // 8 SDH, 4 PCF, Warpsum, kNN, 2 joins
  vgpu::Device dev;
  backend::VgpuBackend be(dev);
  for (const KernelVariant* v : variants) {
    SCOPED_TRACE(name_of(*v));
    const vgpu::KernelStats first = launch(be, *v, dataset());
    for (const int nth : {2, 3}) {
      const vgpu::KernelStats again = launch(be, *v, dataset());
      EXPECT_TRUE(again == first) << "launch " << nth << ": "
                                  << traffic(again) << "\nlaunch 1: "
                                  << traffic(first);
    }
  }
}

TEST(LaunchRepeat, ACopyAtOtherHostAddressesReadsEqualCountersOnAFreshDevice) {
  const std::vector<const KernelVariant*> variants = vgpu_variants();
  std::vector<vgpu::KernelStats> original;
  {
    vgpu::Device dev;
    backend::VgpuBackend be(dev);
    for (const KernelVariant* v : variants)
      original.push_back(launch(be, *v, dataset()));
  }
  // Live ballast the size of a staged coordinate lane takes the heap
  // chunks the launches above freed, so each layout stages elsewhere.
  std::vector<std::unique_ptr<char[]>> ballast;
  for (const int chunks : {1, 7, 29}) {
    for (int i = 0; i < chunks; ++i)
      ballast.push_back(std::make_unique<char[]>(
          kPoints * sizeof(float) + 64 * ballast.size()));
    const PointsSoA copy = dataset();
    ASSERT_NE(copy.x().data(), dataset().x().data());
    vgpu::Device dev;
    backend::VgpuBackend be(dev);
    for (std::size_t i = 0; i < variants.size(); ++i) {
      SCOPED_TRACE(name_of(*variants[i]) + ", ballast " +
                   std::to_string(ballast.size()));
      const vgpu::KernelStats moved = launch(be, *variants[i], copy);
      EXPECT_TRUE(moved == original[i])
          << "copy: " << traffic(moved)
          << "\noriginal: " << traffic(original[i]);
    }
  }
}

TEST(LaunchRepeat, InlineAndPooledEntryPointsReadEqualCounters) {
  vgpu::Device dev;
  vgpu::Stream stream(dev);
  int compared = 0;
  for (const KernelVariant* v : vgpu_variants()) {
    if (is_cursor_join(*v)) continue;  // pooled blocks move its store lines
    SCOPED_TRACE(name_of(*v));
    const vgpu::KernelStats on_device = run_entry(dev, *v, dataset());
    const vgpu::KernelStats on_stream = run_entry(stream, *v, dataset());
    EXPECT_TRUE(on_stream == on_device)
        << "pooled: " << traffic(on_stream)
        << "\ninline: " << traffic(on_device);
    ++compared;
  }
  EXPECT_EQ(compared, 15);
}

}  // namespace
}  // namespace tbs
