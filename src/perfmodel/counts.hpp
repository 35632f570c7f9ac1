// Closed-form access-count models.
//
// Two complementary tools live here:
//
// 1. The paper's analytical equations (Sec. IV-B / IV-D, Eqs. 2–7) as
//    literal, documented functions. Unit tests check the simulator's
//    counters against them (up to the approximations the paper itself
//    makes, which are noted per function).
//
// 2. StatsPoly — exact polynomial extrapolation of measured counters.
//    For fixed block size B and histogram size H, every counter of every
//    2-BS kernel is a degree-2 polynomial in the block count M = N/B
//    (pairwise terms ~ M^2, tile/output terms ~ M, setup ~ 1). Fitting
//    the polynomial through three simulated sizes therefore reproduces
//    the counter *exactly* at any larger N (data-dependent factors such
//    as atomic-collision degrees are N-independent for a stationary input
//    distribution, so they are absorbed into the coefficients). This is
//    what lets the benches evaluate the paper's 2-million-point
//    configurations without simulating 4*10^12 pairs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/stats.hpp"

namespace tbs::perfmodel {

// --- Paper equations (N points, B threads/block, M = N/B blocks, Hs output
// --- size). All counts are element accesses, as in the paper. ------------

/// Eq. 2: global-memory accesses of the Naive kernel:
/// N + sum_{i=1..N} (N - i)  =  N + N(N-1)/2.
double paper_eq2_naive_global(double n);

/// Eq. 3: global accesses of the tiled kernels (SHM-SHM, Register-SHM,
/// Register-ROC): N + sum_{i=1..M} (M - i) B.
double paper_eq3_tiled_global(double n, double b);

/// Eq. 4: shared accesses of SHM-SHM:
/// 2 sum_{i=1..M}(M-i)B^2 + 2 sum_{i=1..B}(B-i)M.
double paper_eq4_shmshm_shared(double n, double b);

/// Eq. 5: shared accesses of Register-SHM (half of Eq. 4):
/// sum_{i=1..M}(M-i)B^2 + sum_{i=1..B}(B-i)M.
double paper_eq5_regshm_shared(double n, double b);

/// Eq. 6: shared-atomic output-update cost of the privatized scheme,
/// sum_{i=1..N}(N + B - i) * C_shmAtomic, returned as an access count
/// (the paper multiplies by the latency; its N+B-i term over-counts the
/// tail by B per row — we return the expression as printed).
double paper_eq6_output_updates(double n, double b);

/// Eq. 7: reduction-stage accesses: Hs * (M * 3 + 1) element accesses
/// (M reads of private copies + M writes + ... as printed:
/// Hs[M(Cgw + Cshmr + Cgr) + Cgw]).
double paper_eq7_reduction_accesses(double n, double b, double hs);

// --- Counter extrapolation ------------------------------------------------

/// Degree-2 polynomial fit of every KernelStats counter in M = N/B.
/// Feed three measured (n, stats) samples with the same B (and H); call
/// predict() for any larger n. Fields that are launch-config echoes are
/// set directly rather than fitted.
class StatsPoly {
 public:
  /// ns must be strictly increasing, all multiples of the common block
  /// size; sample[i] must be the measured stats for ns[i].
  StatsPoly(const std::array<double, 3>& ns,
            const std::array<vgpu::KernelStats, 3>& samples);

  /// The counters at n points. A fit that goes below zero there (the three
  /// samples bend it down, e.g. a layout-dependent dram_bytes triple
  /// 0 / 6144 / 0) cannot be a count: it reads 0, and when `clamped` is
  /// given the field's name is appended to it, so a caller can tell a
  /// clamped 0 from a measured one.
  [[nodiscard]] vgpu::KernelStats predict(
      double n, std::vector<std::string>* clamped = nullptr) const;

 private:
  std::array<double, 3> ns_;
  std::array<vgpu::KernelStats, 3> samples_;
};

}  // namespace tbs::perfmodel
