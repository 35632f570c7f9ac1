// Functional correctness of all eight SDH kernels against the CPU
// reference, plus cross-variant agreement and stats sanity.
#include "kernels/sdh.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <type_traits>

#include "common/datagen.hpp"
#include "cpubase/cpu_stats.hpp"
#include "vgpu/device.hpp"

namespace tbs::kernels {
namespace {

constexpr SdhVariant kAllVariants[] = {
    SdhVariant::Naive,     SdhVariant::RegShm,    SdhVariant::RegRoc,
    SdhVariant::NaiveOut,  SdhVariant::RegShmOut, SdhVariant::RegRocOut,
    SdhVariant::RegShmLb,  SdhVariant::ShuffleOut,
};

// gtest has no printer for SdhCase, so it names each case by the struct's
// raw bytes. Bytes 4-7 were once padding, and the names took in whatever
// the stack held there, so they changed from one run to the next.
// `name_bytes` fills that slot with the bytes each case was first
// registered under, which keeps every name fixed.
using NameBytes = std::array<std::uint8_t, 4>;

struct SdhCase {
  SdhVariant variant;
  NameBytes name_bytes;
  std::size_t n;
  int block;
  int buckets;
};
static_assert(std::has_unique_object_representations_v<SdhCase>,
              "padding would put stack bytes into the test names");

class SdhParam : public ::testing::TestWithParam<SdhCase> {};

TEST_P(SdhParam, MatchesCpuReference) {
  const auto [variant, name_bytes, n, block, buckets] = GetParam();
  const auto pts = uniform_box(n, 12.0f, 999 + n * 7);
  const double width =
      pts.max_possible_distance() / buckets + 1e-4;

  cpubase::ThreadPool pool(1);
  const Histogram expected =
      cpubase::cpu_sdh(pool, pts, width, static_cast<std::size_t>(buckets));

  vgpu::Device dev;
  const auto result = run_sdh(dev, pts, width, buckets, variant, block);
  ASSERT_EQ(result.hist.bucket_count(), expected.bucket_count());
  for (std::size_t b = 0; b < expected.bucket_count(); ++b)
    EXPECT_EQ(result.hist[b], expected[b])
        << to_string(variant) << " bucket " << b << " n=" << n
        << " B=" << block;
  EXPECT_EQ(result.hist.total(), n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SdhParam,
    ::testing::ValuesIn([] {
      // Name bytes of each row, in kAllVariants order.
      constexpr NameBytes kNames512[] = {
          {0x90, 0x55, 0, 0},       {0x6D, 0, 0x72, 0x65},
          {0x30, 0x30, 0x2D, 0x30}, {0x30, 0x30, 0x2D, 0x30},
          {}, {}, {}, {}};
      constexpr NameBytes kNames768[] = {
          {}, {}, {}, {}, {}, {}, {0x8B, 0x7F, 0, 0}, {0x95, 0x55, 0, 0}};
      std::vector<SdhCase> cases;
      for (std::size_t i = 0; i < std::size(kAllVariants); ++i)
        cases.push_back({kAllVariants[i], kNames512[i], 512, 128, 32});
      // Multi-warp blocks and more buckets.
      for (std::size_t i = 0; i < std::size(kAllVariants); ++i)
        cases.push_back({kAllVariants[i], kNames768[i], 768, 256, 97});
      return cases;
    }()));

INSTANTIATE_TEST_SUITE_P(
    RaggedShapes, SdhParam,
    ::testing::Values(
        SdhCase{SdhVariant::Naive, {0x95, 0x55, 0, 0}, 333, 128, 16},
        SdhCase{SdhVariant::RegShm, {0xFF, 0xFF, 0xFF, 0xFF}, 451, 64, 21},
        SdhCase{SdhVariant::RegRoc, {0x95, 0x55, 0, 0}, 700, 256, 33},
        SdhCase{SdhVariant::NaiveOut, {0x8B, 0x7F, 0, 0}, 999, 128, 64},
        SdhCase{SdhVariant::RegShmOut, {0xFD, 0x7F, 0, 0}, 130, 64, 8},
        SdhCase{SdhVariant::RegRocOut, {0xFF, 0xFF, 0xFF, 0xFF}, 1023, 512,
                100},
        SdhCase{SdhVariant::RegShmLb, {0x95, 0x55, 0, 0}, 577, 128, 40},
        SdhCase{SdhVariant::ShuffleOut, {0x8B, 0x7F, 0, 0}, 345, 64, 12}));

INSTANTIATE_TEST_SUITE_P(
    SingleBucketAndSingleBlock, SdhParam,
    ::testing::Values(
        SdhCase{SdhVariant::RegShmOut, {}, 256, 256, 1},
        SdhCase{SdhVariant::ShuffleOut, {0xFD, 0x7F, 0, 0}, 128, 128, 1},
        SdhCase{SdhVariant::RegShmLb, {}, 128, 128, 500}));

TEST(Sdh, AllVariantsAgreeOnClusteredData) {
  const auto pts = gaussian_clusters(512, 3, 15.0f, 1.2f, 21);
  const double width = pts.max_possible_distance() / 50 + 1e-4;
  vgpu::Device dev;
  const auto baseline =
      run_sdh(dev, pts, width, 50, SdhVariant::Naive, 128).hist;
  for (const auto v : kAllVariants) {
    const auto h = run_sdh(dev, pts, width, 50, v, 128).hist;
    EXPECT_EQ(h, baseline) << to_string(v);
  }
}

TEST(Sdh, PrivatizedVariantsAvoidGlobalAtomics) {
  const auto pts = uniform_box(512, 10.0f, 3);
  vgpu::Device dev;
  const auto direct =
      run_sdh(dev, pts, 0.5, 40, SdhVariant::RegShm, 128).stats;
  const auto priv =
      run_sdh(dev, pts, 0.5, 40, SdhVariant::RegShmOut, 128).stats;
  EXPECT_EQ(direct.global_atomics, 512u * 511u / 2);
  EXPECT_EQ(priv.global_atomics, 0u);
  EXPECT_EQ(priv.shared_atomics, 512u * 511u / 2);
  // Privatization must be much cheaper in simulated cycles (paper Fig. 4).
  EXPECT_LT(priv.total_warp_cycles, direct.total_warp_cycles / 2);
}

TEST(Sdh, RocVariantUsesReadOnlyCache) {
  const auto pts = uniform_box(512, 10.0f, 4);
  vgpu::Device dev;
  const auto roc =
      run_sdh(dev, pts, 0.5, 40, SdhVariant::RegRocOut, 128).stats;
  const auto shm =
      run_sdh(dev, pts, 0.5, 40, SdhVariant::RegShmOut, 128).stats;
  EXPECT_GT(roc.roc_loads, 0u);
  EXPECT_GT(roc.roc_hit_bytes, 0u);
  EXPECT_EQ(shm.roc_loads, 0u);
  // SHM variant moves the tile traffic into shared memory instead.
  EXPECT_GT(shm.shared_loads, roc.shared_loads);
}

TEST(Sdh, ShuffleVariantUsesNoTileSharedOrRoc) {
  const auto pts = uniform_box(256, 10.0f, 5);
  vgpu::Device dev;
  const auto s =
      run_sdh(dev, pts, 0.5, 16, SdhVariant::ShuffleOut, 128).stats;
  EXPECT_GT(s.shuffles, 0u);
  EXPECT_EQ(s.roc_loads, 0u);
  // Shared memory used only for the private histogram (atomics + flush),
  // never for tile loads of points: shared_loads only from the flush.
  EXPECT_LE(s.shared_loads, 16u * 2u);
}

TEST(Sdh, HugeDistancesClampIntoLastBucket) {
  PointsSoA pts;
  pts.push_back({0, 0, 0});
  pts.push_back({100, 0, 0});
  pts.push_back({0.1f, 0, 0});
  vgpu::Device dev;
  const auto h = run_sdh(dev, pts, 1.0, 4, SdhVariant::RegShmOut, 32).hist;
  EXPECT_EQ(h[0], 1u);  // 0.1
  EXPECT_EQ(h[3], 2u);  // 100 and 99.9 clamp
}

TEST(Sdh, RejectsBadArguments) {
  vgpu::Device dev;
  const auto pts = uniform_box(64, 1.0f, 1);
  EXPECT_THROW(
      (void)run_sdh(dev, pts, 0.0, 4, SdhVariant::RegShmOut, 64),
      CheckError);
  EXPECT_THROW(
      (void)run_sdh(dev, pts, 1.0, 0, SdhVariant::RegShmOut, 64),
      CheckError);
  EXPECT_THROW(
      (void)run_sdh(dev, pts, 1.0, 4, SdhVariant::RegShmOut, 63),
      CheckError);  // odd block size
  PointsSoA empty;
  EXPECT_THROW(
      (void)run_sdh(dev, empty, 1.0, 4, SdhVariant::RegShmOut, 64),
      CheckError);
}

TEST(Sdh, SharedBytesAccounting) {
  EXPECT_EQ(sdh_shared_bytes(SdhVariant::Naive, 256, 100), 0u);
  EXPECT_EQ(sdh_shared_bytes(SdhVariant::RegShm, 256, 100),
            3u * 256 * sizeof(float));
  EXPECT_EQ(sdh_shared_bytes(SdhVariant::RegRocOut, 256, 100),
            100u * sizeof(std::uint32_t));
  EXPECT_EQ(sdh_shared_bytes(SdhVariant::RegShmOut, 256, 100),
            3u * 256 * sizeof(float) + 100u * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace tbs::kernels
