// Cross-backend parity: the same statistic computed through the CPU and
// vgpu substrates must be bit-identical.
//
// Every registry variant that declares both backends is launched through
// VgpuBackend and CpuBackend on the same point set and compared exactly
// (integer histogram counts / pair counts / float neighbour distances, so
// "bit-identical" is a plain equality; join pairs compare as sets). The
// CPU-only Tree-SDH path is checked against the vgpu baseline, and the kNN
// and join kernels are also compared directly against their cpubase peers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "cpubase/cpu_stats.hpp"
#include "cpubase/tree_sdh.hpp"
#include "kernels/registry.hpp"
#include "kernels/type1.hpp"
#include "kernels/type3.hpp"
#include "obs/profile.hpp"
#include "vgpu/device.hpp"

namespace tbs {
namespace {

constexpr std::size_t kN = 700;
constexpr int kBuckets = 32;

PointsSoA test_points() { return uniform_box(kN, 12.0f, /*seed=*/99); }

/// Smallest block size both backends accept for this variant, or 0.
int usable_block(backend::IBackend& a, backend::IBackend& b,
                 const kernels::KernelVariant& v,
                 const kernels::ProblemDesc& desc) {
  for (const int block : {64, 128, 256}) {
    if (a.can_launch(v, desc, block) && b.can_launch(v, desc, block))
      return block;
  }
  return 0;
}

class BackendParity : public ::testing::Test {
 protected:
  BackendParity() : vgpu_be_(dev_), cpu_be_(cpu_config()) {}

  static backend::CpuBackend::Config cpu_config() {
    backend::CpuBackend::Config c;
    c.threads = 4;
    return c;
  }

  vgpu::Device dev_;
  backend::VgpuBackend vgpu_be_;
  backend::CpuBackend cpu_be_;
};

TEST_F(BackendParity, EveryDualBackendSdhVariantMatchesBitForBit) {
  const PointsSoA pts = test_points();
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;
  const auto desc = kernels::ProblemDesc::sdh(width, kBuckets);

  int compared = 0;
  for (const kernels::KernelVariant& v :
       kernels::KernelRegistry::instance().variants()) {
    if (v.problem != kernels::ProblemType::Sdh) continue;
    if (!v.supports(kernels::kBackendVgpu) ||
        !v.supports(kernels::kBackendCpu))
      continue;
    const int block = usable_block(vgpu_be_, cpu_be_, v, desc);
    ASSERT_GT(block, 0) << v.name;

    Histogram h_vgpu(width, kBuckets);
    Histogram h_cpu(width, kBuckets);
    kernels::KernelOutput out_v;
    out_v.hist = &h_vgpu;
    kernels::KernelOutput out_c;
    out_c.hist = &h_cpu;
    (void)vgpu_be_.launch(v, pts, desc, block, out_v);
    (void)cpu_be_.launch(v, pts, desc, block, out_c);

    ASSERT_EQ(h_vgpu.bucket_count(), h_cpu.bucket_count()) << v.name;
    for (std::size_t i = 0; i < h_vgpu.bucket_count(); ++i)
      EXPECT_EQ(h_vgpu[i], h_cpu[i]) << v.name << " bucket " << i;
    ++compared;
  }
  EXPECT_GE(compared, 4) << "dual-backend SDH catalogue unexpectedly small";
}

TEST_F(BackendParity, EveryDualBackendPcfVariantMatchesBitForBit) {
  const PointsSoA pts = test_points();
  const auto desc = kernels::ProblemDesc::pcf(2.5);

  int compared = 0;
  for (const kernels::KernelVariant& v :
       kernels::KernelRegistry::instance().variants()) {
    if (v.problem != kernels::ProblemType::Pcf) continue;
    if (!v.supports(kernels::kBackendVgpu) ||
        !v.supports(kernels::kBackendCpu))
      continue;
    const int block = usable_block(vgpu_be_, cpu_be_, v, desc);
    ASSERT_GT(block, 0) << v.name;

    std::uint64_t pairs_vgpu = 0;
    std::uint64_t pairs_cpu = 0;
    kernels::KernelOutput out_v;
    out_v.pairs = &pairs_vgpu;
    kernels::KernelOutput out_c;
    out_c.pairs = &pairs_cpu;
    (void)vgpu_be_.launch(v, pts, desc, block, out_v);
    (void)cpu_be_.launch(v, pts, desc, block, out_c);

    EXPECT_EQ(pairs_vgpu, pairs_cpu) << v.name;
    ++compared;
  }
  EXPECT_GE(compared, 1) << "dual-backend PCF catalogue unexpectedly small";
}

TEST_F(BackendParity, EveryDualBackendKnnVariantMatchesBitForBit) {
  const PointsSoA pts = test_points();
  const auto desc = kernels::ProblemDesc::knn(4);

  int compared = 0;
  for (const kernels::KernelVariant& v :
       kernels::KernelRegistry::instance().variants()) {
    if (v.problem != kernels::ProblemType::Knn) continue;
    if (!v.supports(kernels::kBackendVgpu) ||
        !v.supports(kernels::kBackendCpu))
      continue;
    const int block = usable_block(vgpu_be_, cpu_be_, v, desc);
    ASSERT_GT(block, 0) << v.name;

    std::vector<std::vector<float>> rows_vgpu;
    std::vector<std::vector<float>> rows_cpu;
    kernels::KernelOutput out_v;
    out_v.neighbours = &rows_vgpu;
    kernels::KernelOutput out_c;
    out_c.neighbours = &rows_cpu;
    (void)vgpu_be_.launch(v, pts, desc, block, out_v);
    (void)cpu_be_.launch(v, pts, desc, block, out_c);

    ASSERT_EQ(rows_vgpu.size(), pts.size()) << v.name;
    EXPECT_EQ(rows_vgpu, rows_cpu) << v.name;
    ++compared;
  }
  EXPECT_GE(compared, 1) << "dual-backend kNN catalogue unexpectedly small";
}

TEST_F(BackendParity, EveryDualBackendJoinVariantMatchesAsASet) {
  const PointsSoA pts = test_points();
  const auto desc = kernels::ProblemDesc::join(1.5);

  int compared = 0;
  for (const kernels::KernelVariant& v :
       kernels::KernelRegistry::instance().variants()) {
    if (v.problem != kernels::ProblemType::Join) continue;
    if (!v.supports(kernels::kBackendVgpu) ||
        !v.supports(kernels::kBackendCpu))
      continue;
    const int block = usable_block(vgpu_be_, cpu_be_, v, desc);
    ASSERT_GT(block, 0) << v.name;

    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_vgpu;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_cpu;
    kernels::KernelOutput out_v;
    out_v.join_pairs = &pairs_vgpu;
    kernels::KernelOutput out_c;
    out_c.join_pairs = &pairs_cpu;
    (void)vgpu_be_.launch(v, pts, desc, block, out_v);
    (void)cpu_be_.launch(v, pts, desc, block, out_c);

    // Pair *order* is unspecified on both sides; the pair set is the
    // contract.
    std::sort(pairs_vgpu.begin(), pairs_vgpu.end());
    std::sort(pairs_cpu.begin(), pairs_cpu.end());
    EXPECT_FALSE(pairs_cpu.empty()) << v.name;
    EXPECT_EQ(pairs_vgpu, pairs_cpu) << v.name;
    ++compared;
  }
  EXPECT_GE(compared, 2) << "dual-backend join catalogue unexpectedly small";
}

TEST_F(BackendParity, TreeSdhMatchesTheVgpuBaseline) {
  const PointsSoA pts = test_points();
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;
  const auto desc = kernels::ProblemDesc::sdh(width, kBuckets);
  const kernels::KernelRegistry& reg = kernels::KernelRegistry::instance();

  const kernels::KernelVariant* tree =
      reg.find(kernels::ProblemType::Sdh, "Tree-SDH");
  ASSERT_NE(tree, nullptr);
  EXPECT_FALSE(tree->supports(kernels::kBackendVgpu));
  EXPECT_FALSE(vgpu_be_.can_launch(*tree, desc, 128));
  ASSERT_TRUE(cpu_be_.can_launch(*tree, desc, 128));

  const kernels::KernelVariant* baseline =
      reg.find(kernels::ProblemType::Sdh, "Reg-ROC-Out");
  ASSERT_NE(baseline, nullptr);
  const int block = usable_block(vgpu_be_, vgpu_be_, *baseline, desc);
  ASSERT_GT(block, 0);

  Histogram h_tree(width, kBuckets);
  Histogram h_base(width, kBuckets);
  kernels::KernelOutput out_t;
  out_t.hist = &h_tree;
  kernels::KernelOutput out_b;
  out_b.hist = &h_base;
  (void)cpu_be_.launch(*tree, pts, desc, 128, out_t);
  (void)vgpu_be_.launch(*baseline, pts, desc, block, out_b);

  ASSERT_EQ(h_tree.bucket_count(), h_base.bucket_count());
  for (std::size_t i = 0; i < h_tree.bucket_count(); ++i)
    EXPECT_EQ(h_tree[i], h_base[i]) << "bucket " << i;
}

TEST_F(BackendParity, TreeSdhIsExactOnClusteredDataToo) {
  // Clustered data exercises the bulk-resolution path hard (and the
  // empty-first-octant tree shape that used to silently brute-force).
  const PointsSoA pts = gaussian_clusters(1500, 6, 10.0f, 0.2f, /*seed=*/5);
  const double width = pts.max_possible_distance() / 4 + 1e-4;
  cpubase::TreeSdhStats stats;
  const Histogram tree = cpubase::tree_sdh(pts, width, 4, /*leaf=*/16, &stats);
  cpubase::ThreadPool pool(2);
  const Histogram brute = cpubase::cpu_sdh(pool, pts, width, 4);
  for (std::size_t i = 0; i < tree.bucket_count(); ++i)
    EXPECT_EQ(tree[i], brute[i]) << "bucket " << i;
  // The point of the tree: a meaningful share resolved without brute force.
  EXPECT_GT(stats.resolved_pairs, 0u);
  EXPECT_LT(stats.brute_pairs, 1500u * 1499u / 2u);
}

TEST_F(BackendParity, KnnMatchesAcrossSubstrates) {
  const PointsSoA pts = test_points();
  const int k = 4;
  const kernels::KnnResult gpu = kernels::run_knn(dev_, pts, k, 128);
  const auto cpu = cpubase::cpu_knn(cpu_be_.pool(), pts, k);
  ASSERT_EQ(gpu.neighbours.size(), cpu.size());
  for (std::size_t i = 0; i < cpu.size(); ++i) {
    ASSERT_EQ(gpu.neighbours[i].size(), cpu[i].size()) << "point " << i;
    for (std::size_t j = 0; j < cpu[i].size(); ++j)
      EXPECT_EQ(gpu.neighbours[i][j], cpu[i][j])
          << "point " << i << " neighbour " << j;
  }
}

TEST_F(BackendParity, DistanceJoinMatchesAcrossSubstrates) {
  const PointsSoA pts = test_points();
  const double radius = 1.5;
  kernels::JoinResult gpu = kernels::run_distance_join(
      dev_, pts, radius, kernels::JoinVariant::TwoPhase, 128);
  auto cpu = cpubase::cpu_distance_join(cpu_be_.pool(), pts, radius);
  // Pair *order* is unspecified on both sides; the pair set is the contract.
  std::sort(gpu.pairs.begin(), gpu.pairs.end());
  std::sort(cpu.begin(), cpu.end());
  EXPECT_EQ(gpu.pairs, cpu);
}

TEST_F(BackendParity, CpuLaunchStatsCarryNoSimulatedCounters) {
  // The contract obs::check_drift's skip rule rests on: a CPU launch
  // reports host-side facts only, so the drift gate skips it instead of
  // comparing Eqs. 2-7 predictions against zeros.
  const PointsSoA pts = test_points();
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;
  const auto desc = kernels::ProblemDesc::sdh(width, kBuckets);
  const kernels::KernelVariant* v = kernels::KernelRegistry::instance().find(
      kernels::ProblemType::Sdh, "Reg-ROC-Out");
  ASSERT_NE(v, nullptr);
  ASSERT_TRUE(cpu_be_.can_launch(*v, desc, 128));

  Histogram h(width, kBuckets);
  kernels::KernelOutput out;
  out.hist = &h;
  const vgpu::KernelStats cpu_stats = cpu_be_.launch(*v, pts, desc, 128, out);
  EXPECT_FALSE(obs::has_simulated_counters(cpu_stats));
  EXPECT_EQ(cpu_stats.launches, 1u);

  kernels::KernelOutput out_v;
  Histogram hv(width, kBuckets);
  out_v.hist = &hv;
  const vgpu::KernelStats gpu_stats =
      vgpu_be_.launch(*v, pts, desc, 128, out_v);
  EXPECT_TRUE(obs::has_simulated_counters(gpu_stats));
}

TEST_F(BackendParity, DriftSweepSkipsCpuVariantsInsteadOfFailing) {
  const obs::DriftReport report = obs::check_drift(cpu_be_);
  EXPECT_TRUE(report.rows.empty());
  // Every plannable variant the CPU runs, SDH then PCF in registry order.
  EXPECT_EQ(report.skipped,
            (std::vector<std::string>{"Naive-Out", "Reg-SHM-Out",
                                      "Reg-ROC-Out", "Reg-SHM-LB", "Shuffle",
                                      "Tree-SDH", "SHM-SHM", "Register-SHM",
                                      "Register-ROC"}));
  EXPECT_EQ(report.backend, cpu_be_.caps().name);
  EXPECT_TRUE(report.within_tolerance());
  EXPECT_NO_THROW(report.enforce());
}

}  // namespace
}  // namespace tbs
