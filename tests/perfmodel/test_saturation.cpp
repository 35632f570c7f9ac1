// The occupancy-saturation knee in the time model (the Fig. 5 mechanism)
// and the transfer model.
#include <gtest/gtest.h>

#include "perfmodel/timemodel.hpp"
#include "perfmodel/transfer.hpp"

namespace tbs::perfmodel {
namespace {

vgpu::KernelStats throughput_stats() {
  vgpu::KernelStats s;
  s.grid_dim = 10000;
  s.block_dim = 256;
  s.regs_per_thread = 32;
  s.shared_transactions = 24ull * 1'000'000;  // shared-port bound
  return s;
}

TEST(Saturation, FullOccupancyIsUnpenalized) {
  auto s = throughput_stats();
  s.shared_bytes_per_block = 1024;  // tiny: occupancy 100%
  const auto r = model_time(vgpu::DeviceSpec{}, s);
  EXPECT_NEAR(r.shared_s, 1e-3, 1e-9);
}

TEST(Saturation, AboveKneeOccupancyIsStillUnpenalized) {
  // 87.5% occupancy (7 blocks of 256 at 12 KB) is above the 75% knee.
  auto s = throughput_stats();
  s.shared_bytes_per_block = 13 * 1024;
  const auto r = model_time(vgpu::DeviceSpec{}, s);
  EXPECT_GE(r.occ.occupancy, 0.75);
  EXPECT_NEAR(r.shared_s, 1e-3, 1e-9);
}

TEST(Saturation, BelowKneeThroughputDegradesProportionally) {
  // 4 blocks of 256 => 50% occupancy => feed factor 0.5/0.75 = 2/3.
  auto s = throughput_stats();
  s.shared_bytes_per_block = 20 * 1024;
  const auto r = model_time(vgpu::DeviceSpec{}, s);
  EXPECT_DOUBLE_EQ(r.occ.occupancy, 0.5);
  EXPECT_NEAR(r.shared_s, 1e-3 * 0.75 / 0.5, 1e-9);
}

TEST(Saturation, KneeAffectsArithAndRocLegsToo) {
  auto low = throughput_stats();
  low.shared_transactions = 0;
  low.arith_warp_cycles = 1e6;
  low.roc_port_cycles = 1e6;
  auto high = low;
  low.shared_bytes_per_block = 40 * 1024;  // 2 blocks => 25% occupancy
  const auto r_low = model_time(vgpu::DeviceSpec{}, low);
  const auto r_high = model_time(vgpu::DeviceSpec{}, high);
  EXPECT_GT(r_low.arith_s, r_high.arith_s * 2);
  EXPECT_GT(r_low.roc_s, r_high.roc_s * 2);
}

TEST(Saturation, DramLegIsNotOccupancyScaled) {
  // DRAM saturates with little parallelism; the knee must not apply.
  auto a = throughput_stats();
  a.shared_transactions = 0;
  a.dram_bytes = 336'500'000;
  auto b = a;
  b.shared_bytes_per_block = 40 * 1024;
  const auto ra = model_time(vgpu::DeviceSpec{}, a);
  const auto rb = model_time(vgpu::DeviceSpec{}, b);
  EXPECT_DOUBLE_EQ(ra.dram_s, rb.dram_s);
}

TEST(TransferModel, ZeroBytesStillPaysLatency) {
  const TransferModel pcie;
  EXPECT_DOUBLE_EQ(pcie.seconds(0), pcie.latency_s);
}

TEST(TransferModel, ScalesLinearlyInBytesAndDevices) {
  const TransferModel pcie{16e9, 0.0};
  EXPECT_NEAR(pcie.seconds(32'000'000'000ull), 2.0, 1e-9);
  EXPECT_NEAR(pcie.broadcast_seconds(16'000'000'000ull, 4), 4.0, 1e-9);
}

TEST(TransferModel, LatencyPlusBandwidth) {
  const TransferModel pcie{10.0e9, 5.0e-6};
  EXPECT_NEAR(pcie.seconds(10'000'000), 5e-6 + 1e-3, 1e-9);
  EXPECT_NEAR(pcie.broadcast_seconds(10'000'000, 3),
              3 * (5e-6 + 1e-3), 1e-9);
}

TEST(TransferModel, DefaultsAreSane) {
  const TransferModel pcie;
  // 24 MB of points (2M x 12B) should take ~2 ms — small vs multi-second
  // kernels, as the paper's figures (which exclude transfers) assume.
  const double t = pcie.seconds(2'000'000ull * 12);
  EXPECT_GT(t, 1e-3);
  EXPECT_LT(t, 1e-2);
}

}  // namespace
}  // namespace tbs::perfmodel
