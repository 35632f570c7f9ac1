// Functional correctness of the 2-PCF kernels against the CPU reference,
// parameterized across variants, sizes (incl. ragged) and block sizes.
#include "kernels/pcf.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "common/datagen.hpp"
#include "cpubase/cpu_stats.hpp"
#include "vgpu/device.hpp"

namespace tbs::kernels {
namespace {

// gtest has no printer for PcfCase, so it names each case by the struct's
// raw bytes. Bytes 4-7 and 20-23 were once padding, and the names took in
// whatever the stack held there, so they changed from one run to the next.
// `name_bytes` fills the first slot with the bytes each case was first
// registered under and `name_tail` zeroes the second, which keeps every
// name fixed.
using NameBytes = std::array<std::uint8_t, 4>;

struct PcfCase {
  PcfVariant variant;
  NameBytes name_bytes;
  std::size_t n;
  int block;
  NameBytes name_tail{};
};
static_assert(std::has_unique_object_representations_v<PcfCase>,
              "padding would put stack bytes into the test names");

class PcfParam : public ::testing::TestWithParam<PcfCase> {};

TEST_P(PcfParam, MatchesCpuReference) {
  const auto [variant, name_bytes, n, block, name_tail] = GetParam();
  const auto pts = uniform_box(n, 10.0f, 1234 + n);
  const double radius = 2.5;

  cpubase::ThreadPool pool(1);
  const std::uint64_t expected = cpubase::cpu_pcf(pool, pts, radius);

  vgpu::Device dev;
  const auto result = run_pcf(dev, pts, radius, variant, block);
  EXPECT_EQ(result.pairs_within, expected)
      << to_string(variant) << " n=" << n << " B=" << block;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAndShapes, PcfParam,
    ::testing::Values(
        // Every variant at an even multiple of the block size.
        PcfCase{PcfVariant::Naive, {}, 256, 64},
        PcfCase{PcfVariant::ShmShm, {}, 256, 64},
        PcfCase{PcfVariant::RegShm, {}, 256, 64},
        PcfCase{PcfVariant::RegRoc, {}, 256, 64},
        // Larger, multi-block shapes.
        PcfCase{PcfVariant::ShmShm, {}, 1024, 128},
        PcfCase{PcfVariant::RegShm, {0x5F, 0x74, 0x65, 0x73}, 1024, 256},
        PcfCase{PcfVariant::RegRoc, {}, 1024, 128},
        // Ragged tails (N not a multiple of B).
        PcfCase{PcfVariant::Naive, {}, 300, 128},
        PcfCase{PcfVariant::ShmShm, {0, 0, 0xD0, 0xEF}, 523, 128},
        PcfCase{PcfVariant::RegShm, {}, 777, 256},
        PcfCase{PcfVariant::RegRoc, {0x03, 0x1E, 0x09, 0}, 1000, 384},
        // Single block; block bigger than N.
        PcfCase{PcfVariant::RegShm, {0, 0, 0xC5, 0xCA}, 96, 96},
        PcfCase{PcfVariant::RegShm, {}, 50, 128}));

TEST(Pcf, ClusteredDataMatchesCpu) {
  const auto pts = gaussian_clusters(768, 4, 20.0f, 1.0f, 5);
  cpubase::ThreadPool pool(1);
  const auto expected = cpubase::cpu_pcf(pool, pts, 1.5);
  vgpu::Device dev;
  for (const auto v : {PcfVariant::Naive, PcfVariant::ShmShm,
                       PcfVariant::RegShm, PcfVariant::RegRoc}) {
    EXPECT_EQ(run_pcf(dev, pts, 1.5, v, 128).pairs_within, expected)
        << to_string(v);
  }
}

TEST(Pcf, RadiusLargerThanBoxCountsAllPairs) {
  const std::size_t n = 200;
  const auto pts = uniform_box(n, 5.0f, 9);
  vgpu::Device dev;
  const auto r = run_pcf(dev, pts, 100.0, PcfVariant::RegShm, 64);
  EXPECT_EQ(r.pairs_within, n * (n - 1) / 2);
}

TEST(Pcf, TinyRadiusCountsNothing) {
  const auto pts = jittered_lattice(216, 6.0f, 0.0f, 3);  // spacing 1
  vgpu::Device dev;
  const auto r = run_pcf(dev, pts, 0.5, PcfVariant::RegRoc, 72);
  EXPECT_EQ(r.pairs_within, 0u);
}

TEST(Pcf, VariantOrderingInModelCycles) {
  // Per the paper's analysis (Eqs. 4-5), Register-SHM must not be slower
  // than SHM-SHM, and Naive must be the slowest, in simulated warp cycles.
  const auto pts = uniform_box(2048, 10.0f, 77);
  vgpu::Device dev;
  const auto t = [&](PcfVariant v) {
    return run_pcf(dev, pts, 2.0, v, 256).stats.total_warp_cycles;
  };
  const double naive = t(PcfVariant::Naive);
  const double shm_shm = t(PcfVariant::ShmShm);
  const double reg_shm = t(PcfVariant::RegShm);
  EXPECT_LT(reg_shm, shm_shm);
  EXPECT_LT(shm_shm, naive);
}

TEST(Pcf, RejectsBadArguments) {
  vgpu::Device dev;
  PointsSoA empty;
  EXPECT_THROW((void)run_pcf(dev, empty, 1.0, PcfVariant::RegShm, 64),
               CheckError);
  const auto pts = uniform_box(64, 1.0f, 1);
  EXPECT_THROW((void)run_pcf(dev, pts, -1.0, PcfVariant::RegShm, 64),
               CheckError);
  EXPECT_THROW((void)run_pcf(dev, pts, 1.0, PcfVariant::RegShm, 0),
               CheckError);
}

}  // namespace
}  // namespace tbs::kernels
