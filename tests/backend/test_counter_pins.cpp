// Pinned answers and counters of every vgpu launch a backend makes.
//
// Every registry variant with a vgpu functor (8 SDH, 4 PCF, warpsum, kNN
// and 2 joins), plus launch_cross for SDH and for PCF, runs once through a
// VgpuBackend on one fixed dataset: 700 points at block size 64, so the
// last of the 11 blocks is partial. Each launch's answer digest and its
// layout-independent counters must equal the values recorded below, which
// were read from the launch path as it was before the shared block queue.
//
// Layout-independent means every KernelStats field except dram_bytes,
// l2_bytes, roc_hit_bytes, total_warp_cycles, max_block_cycles and
// phase_cycles. The simulated L2 and read-only cache index lines by host
// address, so those six follow where the host heap put each buffer
// (ROADMAP item 1) and may move from process to process. Launch history
// does not move them: every launch starts from empty caches, and
// test_launch_repeat.cpp requires every field equal across repeated
// launches in one process.
//
// One more field is left out for one launch: the global-cursor join's
// threads store their pairs at the slots a contended atomic cursor hands
// out, and pooled blocks draw from it in whatever order they run, so its
// store coalescing (global_transactions) changes from run to run. Its pair
// set and every other counter stay fixed.
//
// When a value moves, the failure message prints the row as it now reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "common/histogram.hpp"
#include "kernels/registry.hpp"
#include "vgpu/device.hpp"

namespace tbs {
namespace {

constexpr std::size_t kPoints = 700;
constexpr int kBlock = 64;
constexpr int kBuckets = 32;
constexpr double kRadius = 1.5;
constexpr int kK = 4;

/// The layout-independent KernelStats fields, in the order the pins list
/// them.
constexpr std::array<const char*, 29> kFields = {
    "global_loads",        "global_stores",
    "global_atomics",      "roc_loads",
    "shared_loads",        "shared_stores",
    "shared_atomics",      "shuffles",
    "barriers",            "roc_port_cycles",
    "shared_bytes",        "global_transactions",
    "shared_transactions", "bank_conflict_extra",
    "atomic_collision_extra", "global_atomic_port_cycles",
    "atomic_distinct_lines", "warp_instructions",
    "active_lane_slots",   "possible_lane_slots",
    "arith_ops",           "arith_warp_cycles",
    "control_ops",         "control_warp_cycles",
    "grid_dim",            "block_dim",
    "shared_bytes_per_block", "regs_per_thread",
    "launches"};
constexpr std::size_t kGlobalTransactions = 11;

using Counters = std::array<double, kFields.size()>;

Counters layout_free(const vgpu::KernelStats& s) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  return {d(s.global_loads),
          d(s.global_stores),
          d(s.global_atomics),
          d(s.roc_loads),
          d(s.shared_loads),
          d(s.shared_stores),
          d(s.shared_atomics),
          d(s.shuffles),
          d(s.barriers),
          d(s.roc_port_cycles),
          d(s.shared_bytes),
          d(s.global_transactions),
          d(s.shared_transactions),
          d(s.bank_conflict_extra),
          d(s.atomic_collision_extra),
          s.global_atomic_port_cycles,
          d(s.atomic_distinct_lines),
          d(s.warp_instructions),
          d(s.active_lane_slots),
          d(s.possible_lane_slots),
          s.arith_ops,
          s.arith_warp_cycles,
          s.control_ops,
          s.control_warp_cycles,
          d(s.grid_dim),
          d(s.block_dim),
          d(s.shared_bytes_per_block),
          d(s.regs_per_thread),
          d(s.launches)};
}

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(float f) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    add(std::uint64_t{bits});
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One launch: its name, answer digest and layout-independent counters.
struct Observed {
  std::string launch;
  std::uint64_t answer = 0;
  Counters counters{};
};

// clang-format off
const Observed kPins[] = {
    {"SDH/Naive", 0xcae24796414d93a0ULL, {245350, 0, 244650, 0, 0, 0, 0, 0, 0, 0, 0, 164284, 0, 0, 125873, 489300, 2, 15994, 490000, 511808, 3425100, 111804, 489300, 15972, 11, 64, 0, 32, 1}},
    {"SDH/Register-SHM", 0xcae24796414d93a0ULL, {4180, 0, 244650, 0, 244650, 4180, 0, 0, 7744, 0, 2985960, 114239, 24354, 0, 130807, 489300, 2, 16236, 497660, 519552, 3425100, 111804, 489300, 15972, 11, 64, 768, 32, 1}},
    {"SDH/Register-ROC", 0xcae24796414d93a0ULL, {700, 0, 244650, 244650, 0, 0, 0, 0, 0, 24981, 0, 138890, 0, 0, 130807, 489300, 2, 15994, 490000, 511808, 3425100, 111804, 489300, 15972, 11, 64, 0, 32, 1}},
    {"SDH/Naive-Out", 0xcae24796414d93a0ULL, {245702, 384, 0, 0, 352, 352, 244650, 0, 1408, 0, 981416, 45531, 149194, 0, 125873, 0, 0, 16039, 491440, 513248, 3425452, 111815, 490004, 15994, 11, 64, 128, 32, 2}},
    {"SDH/Reg-SHM-Out", 0xcae24796414d93a0ULL, {4532, 384, 0, 0, 245002, 4532, 244650, 0, 9152, 0, 3967376, 420, 180948, 0, 130807, 0, 0, 16281, 499100, 520992, 3425452, 111815, 490004, 15994, 11, 64, 896, 32, 2}},
    {"SDH/Reg-ROC-Out", 0xcae24796414d93a0ULL, {1052, 384, 0, 244650, 352, 352, 244650, 0, 1408, 24981, 981416, 25071, 156594, 0, 130807, 0, 0, 16039, 491440, 513248, 3425452, 111815, 490004, 15994, 11, 64, 128, 32, 2}},
    {"SDH/Reg-SHM-LB", 0xcae24796414d93a0ULL, {4532, 384, 0, 0, 245002, 4532, 244650, 0, 9152, 0, 3967376, 420, 178638, 0, 132129, 0, 0, 15661, 499100, 501152, 3425452, 107475, 490644, 15394, 11, 64, 896, 32, 2}},
    {"SDH/Shuffle", 0xcae24796414d93a0ULL, {9504, 384, 0, 0, 352, 352, 244650, 811008, 1408, 0, 981416, 915, 157254, 0, 131246, 0, 0, 33672, 1066250, 1077504, 3425452, 111815, 541376, 16918, 11, 64, 128, 32, 2}},
    {"PCF/Naive", 0xeedc9fc506203e7eULL, {245350, 700, 0, 0, 0, 0, 0, 0, 0, 0, 0, 46207, 0, 0, 0, 0, 0, 8708, 246050, 278656, 2201850, 77967, 489300, 15972, 11, 64, 0, 32, 1}},
    {"PCF/SHM-SHM", 0xeedc9fc506203e7eULL, {4180, 700, 0, 0, 489300, 4180, 0, 0, 7744, 0, 5921760, 1096, 48312, 0, 0, 0, 0, 16936, 498360, 541952, 2201850, 77877, 489300, 15972, 11, 64, 1536, 32, 1}},
    {"PCF/Register-SHM", 0xeedc9fc506203e7eULL, {4180, 700, 0, 0, 244650, 4180, 0, 0, 7744, 0, 2985960, 1096, 24354, 0, 0, 0, 0, 8950, 253710, 286400, 2201850, 77877, 489300, 15972, 11, 64, 768, 32, 1}},
    {"PCF/Register-ROC", 0xeedc9fc506203e7eULL, {700, 700, 0, 244650, 0, 0, 0, 0, 0, 24981, 0, 25747, 0, 0, 0, 0, 0, 8708, 246050, 278656, 2201850, 77967, 489300, 15972, 11, 64, 0, 32, 1}},
    {"PCF/Warpsum", 0xeedc9fc506203e7eULL, {4180, 22, 0, 0, 244650, 4180, 0, 3520, 8448, 0, 2985960, 418, 24354, 0, 0, 0, 0, 8382, 256552, 268224, 2205370, 72006, 489300, 15972, 11, 64, 768, 32, 1}},
    {"kNN/kNN", 0x72006ee8dbc5020dULL, {8400, 2800, 0, 0, 489300, 7700, 0, 0, 15488, 0, 5964000, 1147, 46863, 0, 0, 0, 0, 15973, 508200, 511136, 3992328, 147944, 980000, 32156, 11, 64, 768, 32, 1}},
    {"join/global-cursor", 0x6b8b6b54fb84e5d7ULL, {4880, 5546, 2773, 0, 244650, 4180, 0, 0, 8448, 0, 2985960, 7495, 27474, 135, 434, 5546, 1, 15636, 262029, 500352, 2201850, 101745, 489300, 17962, 11, 64, 768, 32, 1}},
    {"join/two-phase", 0x6b8b6b54fb84e5d7ULL, {10460, 6246, 0, 0, 489300, 8360, 0, 0, 16896, 0, 5971920, 6358, 50814, 117, 0, 0, 0, 21299, 514366, 681568, 4403700, 170991, 978600, 33270, 11, 64, 768, 32, 2}},
    {"SDH/cross", 0x43ce8b8c3a2d5e40ULL, {1052, 384, 0, 245000, 352, 352, 245000, 0, 1408, 23100, 982816, 23190, 157062, 0, 133041, 0, 0, 15467, 492140, 494944, 3430352, 107811, 490704, 15422, 11, 64, 128, 32, 2}},
    {"PCF/cross", 0xf53d79e884658396ULL, {700, 700, 0, 245000, 0, 0, 0, 0, 0, 23100, 0, 23188, 0, 0, 0, 0, 0, 7744, 246400, 247808, 2205000, 69300, 490000, 15400, 11, 64, 0, 32, 1}},
};
// clang-format on

std::uint64_t digest_of(kernels::ProblemType type, const Histogram& hist,
                        std::uint64_t pairs,
                        const std::vector<std::vector<float>>& neighbours,
                        std::vector<std::pair<std::uint32_t, std::uint32_t>>
                            join_pairs) {
  Digest d;
  switch (type) {
    case kernels::ProblemType::Sdh:
      for (const std::uint64_t c : hist.counts()) d.add(c);
      break;
    case kernels::ProblemType::Pcf:
      d.add(pairs);
      break;
    case kernels::ProblemType::Knn:
      for (const auto& row : neighbours)
        for (const float f : row) d.add(f);
      break;
    case kernels::ProblemType::Join:
      // The pair set is the contract; the global cursor's order is not.
      std::sort(join_pairs.begin(), join_pairs.end());
      for (const auto& [i, j] : join_pairs)
        d.add((std::uint64_t{i} << 32) | j);
      break;
  }
  return d.value();
}

std::vector<Observed> run_every_launch() {
  const PointsSoA pts = uniform_box(kPoints, 10.0f, /*seed=*/2016);
  const PointsSoA partners = uniform_box(kPoints / 2, 10.0f, /*seed=*/2017);
  const auto sdh = kernels::ProblemDesc::sdh(
      pts.max_possible_distance() / kBuckets + 1e-4, kBuckets);
  const auto desc_for = [&](kernels::ProblemType t) {
    switch (t) {
      case kernels::ProblemType::Sdh: return sdh;
      case kernels::ProblemType::Pcf: return kernels::ProblemDesc::pcf(kRadius);
      case kernels::ProblemType::Knn: return kernels::ProblemDesc::knn(kK);
      case kernels::ProblemType::Join:
        return kernels::ProblemDesc::join(kRadius);
    }
    return sdh;
  };

  vgpu::Device dev;
  backend::VgpuBackend be(dev);
  std::vector<Observed> seen;
  const auto observe = [&](std::string name, kernels::ProblemType type,
                           const auto& launch) {
    Histogram hist(sdh.bucket_width, kBuckets);
    std::uint64_t pairs = 0;
    std::vector<std::vector<float>> neighbours;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> join_pairs;
    kernels::KernelOutput out{&hist, &pairs, &neighbours, &join_pairs};
    const vgpu::KernelStats stats = launch(out);
    seen.push_back({std::move(name),
                    digest_of(type, hist, pairs, neighbours,
                              std::move(join_pairs)),
                    layout_free(stats)});
  };

  for (const kernels::KernelVariant& v :
       kernels::KernelRegistry::instance().variants()) {
    if (!v.supports(kernels::kBackendVgpu)) continue;
    const kernels::ProblemDesc desc = desc_for(v.problem);
    observe(std::string(kernels::to_string(v.problem)) + "/" + v.name,
            v.problem, [&](kernels::KernelOutput& out) {
              return be.launch(v, pts, desc, kBlock, out);
            });
  }
  for (const kernels::ProblemType t :
       {kernels::ProblemType::Sdh, kernels::ProblemType::Pcf}) {
    const kernels::ProblemDesc desc = desc_for(t);
    observe(std::string(kernels::to_string(t)) + "/cross", t,
            [&](kernels::KernelOutput& out) {
              return be.launch_cross(pts, partners, desc, kBlock, out);
            });
  }
  return seen;
}

std::string as_row(const Observed& o) {
  std::string row = "    {\"" + o.launch + "\", 0x";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llxULL, {",
                static_cast<unsigned long long>(o.answer));
  row += buf;
  for (std::size_t f = 0; f < o.counters.size(); ++f) {
    std::snprintf(buf, sizeof buf, "%s%.17g", f == 0 ? "" : ", ",
                  o.counters[f]);
    row += buf;
  }
  return row + "}},";
}

TEST(CounterPins, EveryVgpuLaunchKeepsItsAnswerAndLayoutFreeCounters) {
  const std::vector<Observed> seen = run_every_launch();
  ASSERT_EQ(seen.size(), 18u);  // 16 registry variants + 2 cross launches
  std::string rows;
  for (const Observed& o : seen) rows += as_row(o) + "\n";
  ASSERT_EQ(std::size(kPins), seen.size()) << "as recorded now:\n" << rows;

  for (std::size_t i = 0; i < seen.size(); ++i) {
    const Observed& o = seen[i];
    const Observed& pin = kPins[i];
    SCOPED_TRACE(o.launch);
    ASSERT_EQ(o.launch, pin.launch);
    EXPECT_EQ(o.answer, pin.answer) << as_row(o);
    const bool cursor_order = o.launch == "join/global-cursor";
    for (std::size_t f = 0; f < kFields.size(); ++f) {
      if (cursor_order && f == kGlobalTransactions) continue;
      EXPECT_EQ(o.counters[f], pin.counters[f])
          << kFields[f] << "; row as it reads now:\n" << as_row(o);
    }
  }
}

TEST(CounterPins, PlannablePcfCountersDoNotDependOnTheRadius) {
  // A vgpu PCF plan is keyed without its radius
  // (Capabilities::pcf_price_reads_radius): every plannable PCF kernel's
  // addresses come from indices, and the radius only decides a register
  // increment. So its answer moves with the radius and no layout-free
  // counter does.
  const PointsSoA pts = uniform_box(1100, 10.0f, /*seed=*/2018);
  vgpu::Device dev;
  backend::VgpuBackend be(dev);
  int checked = 0;
  for (const kernels::KernelVariant* v :
       kernels::KernelRegistry::instance().plannable(
           kernels::ProblemType::Pcf)) {
    for (const int block : {128, 256, 512}) {
      SCOPED_TRACE(v->name + "/B" + std::to_string(block));
      std::uint64_t near = 0;
      std::uint64_t far = 0;
      kernels::KernelOutput near_out;
      near_out.pairs = &near;
      kernels::KernelOutput far_out;
      far_out.pairs = &far;
      const Counters at_near = layout_free(
          be.launch(*v, pts, kernels::ProblemDesc::pcf(0.5), block, near_out));
      const Counters at_far = layout_free(
          be.launch(*v, pts, kernels::ProblemDesc::pcf(2.0), block, far_out));
      EXPECT_LT(near, far);
      for (std::size_t f = 0; f < kFields.size(); ++f)
        EXPECT_EQ(at_near[f], at_far[f]) << kFields[f];
      ++checked;
    }
  }
  EXPECT_EQ(checked, 9);  // 3 plannable PCF variants x 3 block sizes
}

}  // namespace
}  // namespace tbs
