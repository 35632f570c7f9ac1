// Device-side distance helpers and the standardized arithmetic-op costs
// kernels report to the simulator.
//
// Keeping the per-pair op counts in one place makes the utilization tables
// comparable across kernels and lets the closed-form count model reuse the
// exact same constants.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/histogram.hpp"
#include "common/points.hpp"

namespace tbs::kernels {

/// Scalar ops in a squared-Euclidean-distance evaluation (3 sub, 3 mul,
/// 2 add).
inline constexpr double kDist2Ops = 8.0;
/// Extra ops for the square root (modelled as a 4-op special-function call).
inline constexpr double kSqrtOps = 4.0;
/// Bucket mapping: one divide + one min-clamp.
inline constexpr double kBucketOps = 2.0;
/// Radius test for the 2-point correlation function: one compare (+add).
inline constexpr double kCompareOps = 1.0;

/// Ops per SDH pair (distance + sqrt + bucket).
inline constexpr double kSdhPairOps = kDist2Ops + kSqrtOps + kBucketOps;
/// Ops per 2-PCF pair (squared distance + compare against r^2).
inline constexpr double kPcfPairOps = kDist2Ops + kCompareOps;

/// Loop bookkeeping charged per inner-loop iteration (index increment +
/// bound compare).
inline constexpr double kLoopControlOps = 2.0;

/// Histogram bucket for a distance, clamped into [0, buckets) by the one
/// rule every implementation in the repo shares (tbs::bucket_index).
inline int bucket_of(float distance, double bucket_width, int buckets) {
  return bucket_index(distance, bucket_width, buckets);
}

}  // namespace tbs::kernels
