// The runtime's determinism invariant, end to end: for every kernel,
// running through a Stream on the block queue produces results AND
// counters bit-identical to the sequential Device::launch path, also while
// other threads' launches on other devices share the queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "common/histogram.hpp"
#include "kernels/pcf.hpp"
#include "kernels/registry.hpp"
#include "kernels/sdh.hpp"
#include "kernels/type1.hpp"
#include "kernels/type3.hpp"
#include "vgpu/device.hpp"
#include "vgpu/stream.hpp"

namespace tbs::kernels {
namespace {

using vgpu::Device;
using vgpu::Stream;

// Force real multi-worker execution even on 1-core hosts (only effective if
// this binary hasn't created the pool yet; either way the invariant holds).
const bool kWorkersConfigured = [] {
  vgpu::set_async_worker_count(4);
  return true;
}();

constexpr std::size_t kN = 700;  // not a block multiple: ragged tail
constexpr int kBuckets = 32;
constexpr int kBlock = 128;

class SdhAsyncParity : public ::testing::TestWithParam<SdhVariant> {};

TEST_P(SdhAsyncParity, StreamMatchesInlineBitExactly) {
  ASSERT_TRUE(kWorkersConfigured);
  const SdhVariant variant = GetParam();
  const auto pts = uniform_box(kN, 10.0f, 1234);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;

  Device dev_inline;
  const SdhResult inline_r =
      run_sdh(dev_inline, pts, width, kBuckets, variant, kBlock);

  Device dev_async;
  Stream stream(dev_async);
  const SdhResult async_r =
      run_sdh(stream, pts, width, kBuckets, variant, kBlock);

  ASSERT_EQ(inline_r.hist.bucket_count(), async_r.hist.bucket_count());
  for (std::size_t b = 0; b < inline_r.hist.bucket_count(); ++b)
    EXPECT_EQ(inline_r.hist[b], async_r.hist[b]) << "bucket " << b;
  EXPECT_EQ(inline_r.stats, async_r.stats);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SdhAsyncParity,
    ::testing::Values(SdhVariant::Naive, SdhVariant::RegShm,
                      SdhVariant::RegRoc, SdhVariant::NaiveOut,
                      SdhVariant::RegShmOut, SdhVariant::RegRocOut,
                      SdhVariant::RegShmLb, SdhVariant::ShuffleOut),
    [](const ::testing::TestParamInfo<SdhVariant>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

class PcfAsyncParity : public ::testing::TestWithParam<PcfVariant> {};

TEST_P(PcfAsyncParity, StreamMatchesInlineBitExactly) {
  const PcfVariant variant = GetParam();
  const auto pts = uniform_box(kN, 10.0f, 4321);
  const double radius = 2.0;

  Device dev_inline;
  const PcfResult inline_r = run_pcf(dev_inline, pts, radius, variant, kBlock);

  Device dev_async;
  Stream stream(dev_async);
  const PcfResult async_r = run_pcf(stream, pts, radius, variant, kBlock);

  EXPECT_EQ(inline_r.pairs_within, async_r.pairs_within);
  EXPECT_EQ(inline_r.stats, async_r.stats);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, PcfAsyncParity,
    ::testing::Values(PcfVariant::Naive, PcfVariant::ShmShm,
                      PcfVariant::RegShm, PcfVariant::RegRoc),
    [](const ::testing::TestParamInfo<PcfVariant>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(WarpsumAsyncParity, StreamMatchesInlineBitExactly) {
  const auto pts = uniform_box(kN, 10.0f, 99);

  Device dev_inline;
  const PcfResult inline_r = run_pcf_warpsum(dev_inline, pts, 2.0, kBlock);

  Device dev_async;
  Stream stream(dev_async);
  const PcfResult async_r = run_pcf_warpsum(stream, pts, 2.0, kBlock);

  EXPECT_EQ(inline_r.pairs_within, async_r.pairs_within);
  EXPECT_EQ(inline_r.stats, async_r.stats);
}

TEST(KnnAsyncParity, StreamMatchesInlineBitExactly) {
  const auto pts = uniform_box(kN, 10.0f, 55);

  Device dev_inline;
  const KnnResult inline_r = run_knn(dev_inline, pts, 4, kBlock);

  Device dev_async;
  Stream stream(dev_async);
  const KnnResult async_r = run_knn(stream, pts, 4, kBlock);

  EXPECT_EQ(inline_r.neighbours, async_r.neighbours);
  EXPECT_EQ(inline_r.stats, async_r.stats);
}

TEST(JoinAsyncParity, TwoPhaseMatchesInlineBitExactly) {
  const auto pts = uniform_box(kN, 10.0f, 77);
  const double radius = 1.5;

  Device dev_inline;
  const JoinResult inline_r = run_distance_join(
      dev_inline, pts, radius, JoinVariant::TwoPhase, kBlock);

  Device dev_async;
  Stream stream(dev_async);
  const JoinResult async_r =
      run_distance_join(stream, pts, radius, JoinVariant::TwoPhase, kBlock);

  // TwoPhase emits into precomputed exclusive slices: even the pair *order*
  // is identical between inline and pooled execution.
  ASSERT_EQ(inline_r.pairs.size(), async_r.pairs.size());
  EXPECT_EQ(inline_r.pairs, async_r.pairs);
  EXPECT_EQ(inline_r.stats, async_r.stats);
}

TEST(JoinAsyncParity, GlobalCursorMatchesInlineAsASet) {
  const auto pts = uniform_box(kN, 10.0f, 77);
  const double radius = 1.5;

  Device dev_inline;
  JoinResult inline_r = run_distance_join(
      dev_inline, pts, radius, JoinVariant::GlobalCursor, kBlock);

  Device dev_async;
  Stream stream(dev_async);
  JoinResult async_r = run_distance_join(stream, pts, radius,
                                         JoinVariant::GlobalCursor, kBlock);

  // GlobalCursor threads consume the returned old value of one contended
  // atomic, so pooled block scheduling permutes emission order; the pair
  // *set* must still match the inline run exactly.
  std::sort(inline_r.pairs.begin(), inline_r.pairs.end());
  std::sort(async_r.pairs.begin(), async_r.pairs.end());
  ASSERT_EQ(inline_r.pairs.size(), async_r.pairs.size());
  EXPECT_EQ(inline_r.pairs, async_r.pairs);

  // Operation counts are order-invariant (every thread issues the same ops
  // wherever its pairs land); traffic/coalescing counters are not, because
  // the emitted *addresses* depend on the cursor values each thread drew.
  EXPECT_EQ(inline_r.stats.global_loads, async_r.stats.global_loads);
  EXPECT_EQ(inline_r.stats.global_stores, async_r.stats.global_stores);
  EXPECT_EQ(inline_r.stats.global_atomics, async_r.stats.global_atomics);
  EXPECT_EQ(inline_r.stats.shared_loads, async_r.stats.shared_loads);
  EXPECT_EQ(inline_r.stats.shared_stores, async_r.stats.shared_stores);
  EXPECT_EQ(inline_r.stats.barriers, async_r.stats.barriers);
  EXPECT_EQ(inline_r.stats.launches, async_r.stats.launches);
  EXPECT_DOUBLE_EQ(inline_r.stats.arith_ops, async_r.stats.arith_ops);
}

TEST(JoinAsyncParity, BothVariantsAgreeOnTheJoinSetThroughStreams) {
  const auto pts = uniform_box(kN, 10.0f, 31);
  const double radius = 2.0;

  Device dev_a;
  Stream stream_a(dev_a);
  JoinResult cursor_r = run_distance_join(stream_a, pts, radius,
                                          JoinVariant::GlobalCursor, kBlock);
  Device dev_b;
  Stream stream_b(dev_b);
  JoinResult two_phase_r =
      run_distance_join(stream_b, pts, radius, JoinVariant::TwoPhase, kBlock);

  std::sort(cursor_r.pairs.begin(), cursor_r.pairs.end());
  std::sort(two_phase_r.pairs.begin(), two_phase_r.pairs.end());
  EXPECT_EQ(cursor_r.pairs, two_phase_r.pairs);
}

TEST(GramAsyncParity, StreamMatchesInlineBitExactly) {
  const auto pts = uniform_box(300, 10.0f, 13);

  Device dev_inline;
  const GramResult inline_r = run_gram(dev_inline, pts, 0.5, kBlock);

  Device dev_async;
  Stream stream(dev_async);
  const GramResult async_r = run_gram(stream, pts, 0.5, kBlock);

  ASSERT_EQ(inline_r.matrix.size(), async_r.matrix.size());
  EXPECT_EQ(inline_r.matrix, async_r.matrix);
  EXPECT_EQ(inline_r.stats, async_r.stats);
}

/// One launch of the sequence below: its answer, and its counters without
/// the fields that follow host addresses (the L2 and read-only cache index
/// lines by host pointer, ROADMAP item 1), which differ between threads'
/// buffers.
struct Outcome {
  std::vector<std::uint64_t> hist;
  std::uint64_t pairs = 0;
  std::vector<std::vector<float>> neighbours;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> join_pairs;
  vgpu::KernelStats stats;

  bool operator==(const Outcome&) const = default;
};

vgpu::KernelStats layout_free(vgpu::KernelStats s, bool cursor_order) {
  s.dram_bytes = 0;
  s.l2_bytes = 0;
  s.roc_hit_bytes = 0;
  s.total_warp_cycles = 0.0;
  s.max_block_cycles = 0.0;
  s.phase_cycles.clear();
  // The global-cursor join stores each pair at the slot its cursor draw
  // returns, and pooled blocks draw in the order they run.
  if (cursor_order) s.global_transactions = 0;
  return s;
}

/// A fixed sequence of pooled launches through a backend on a Device of
/// its own: SDH, PCF, kNN, both joins, and launch_cross for SDH and PCF.
std::vector<Outcome> run_sequence(const PointsSoA& pts,
                                  const PointsSoA& partners) {
  Device dev;
  backend::VgpuBackend be(dev);
  const auto& registry = KernelRegistry::instance();
  const ProblemDesc sdh = ProblemDesc::sdh(
      pts.max_possible_distance() / kBuckets + 1e-4, kBuckets);
  const ProblemDesc pcf = ProblemDesc::pcf(1.5);
  const ProblemDesc join = ProblemDesc::join(1.5);
  const std::array<std::pair<const KernelVariant*, ProblemDesc>, 6> launches =
      {{{registry.find(ProblemType::Sdh, "Reg-SHM-Out"), sdh},
        {registry.find(ProblemType::Sdh, "Shuffle"), sdh},
        {registry.find(ProblemType::Pcf, "Register-SHM"), pcf},
        {registry.find(ProblemType::Knn, "kNN"), ProblemDesc::knn(3)},
        {registry.find(ProblemType::Join, "two-phase"), join},
        {registry.find(ProblemType::Join, "global-cursor"), join}}};

  std::vector<Outcome> outcomes;
  const auto run = [&](const auto& launch, bool cursor_order) {
    Outcome o;
    Histogram hist(sdh.bucket_width, kBuckets);
    KernelOutput out{&hist, &o.pairs, &o.neighbours, &o.join_pairs};
    o.stats = layout_free(launch(out), cursor_order);
    o.hist.assign(hist.counts().begin(), hist.counts().end());
    std::sort(o.join_pairs.begin(), o.join_pairs.end());
    outcomes.push_back(std::move(o));
  };
  for (const auto& [variant, desc] : launches) {
    check(variant != nullptr, "run_sequence: variant not registered");
    run([&](KernelOutput& out) {
      return be.launch(*variant, pts, desc, 64, out);
    }, variant->name == "global-cursor");
  }
  for (const ProblemDesc& desc : {sdh, pcf})
    run([&](KernelOutput& out) {
      return be.launch_cross(pts, partners, desc, 64, out);
    }, false);
  return outcomes;
}

TEST(ConcurrentLaunchParity, FourThreadsMatchOneThread) {
  ASSERT_TRUE(kWorkersConfigured);
  // 300 points at block size 64: five blocks, the last one partial.
  const auto pts = uniform_box(300, 10.0f, 808);
  const auto partners = uniform_box(200, 10.0f, 809);
  const std::vector<Outcome> expected = run_sequence(pts, partners);
  ASSERT_EQ(expected.size(), 8u);

  constexpr int kThreads = 4;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<Outcome>> got(kThreads);
    std::vector<std::exception_ptr> errors(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        try {
          got[static_cast<std::size_t>(t)] = run_sequence(pts, partners);
        } catch (...) {
          errors[static_cast<std::size_t>(t)] = std::current_exception();
        }
      });
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      SCOPED_TRACE("round " + std::to_string(round) + ", thread " +
                   std::to_string(t));
      const auto i = static_cast<std::size_t>(t);
      if (errors[i]) std::rethrow_exception(errors[i]);
      ASSERT_EQ(got[i].size(), expected.size());
      for (std::size_t l = 0; l < expected.size(); ++l)
        EXPECT_TRUE(got[i][l] == expected[l]) << "launch " << l;
    }
  }
}

}  // namespace
}  // namespace tbs::kernels
