// Distance histogram — the output structure of Type-II 2-BS problems.
#pragma once

#include <climits>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace tbs {

/// Histogram bucket of a distance: the quotient distance / width in double
/// precision, clamped to the last bucket *before* it is converted, so a
/// quotient beyond int's range (a tiny width) lands in the last bucket
/// instead of overflowing the conversion. Every SDH implementation buckets
/// through this rule (the AVX2 pair tile spells it vdivpd, vminpd,
/// vcvttpd2dq), so boundary distances land identically everywhere.
/// `q < last ? q : last` is minpd's operand rule: a NaN quotient also goes
/// to the last bucket. `distance` must not be negative.
[[nodiscard]] inline int bucket_index(double distance, double width,
                                      int buckets) noexcept {
  const double q = distance / width;
  const auto last = static_cast<double>(buckets - 1);
  return static_cast<int>(q < last ? q : last);
}

/// Fixed-width histogram over [0, bucket_width * bucket_count).
///
/// This is the host-side ground-truth representation of the SDH output; the
/// GPU kernels produce a flat count array with the same bucketing rule, so
/// results are comparable bucket-for-bucket.
class Histogram {
 public:
  Histogram() = default;

  Histogram(double bucket_width, std::size_t bucket_count)
      : width_(bucket_width), counts_(bucket_count, 0) {
    check(bucket_width > 0.0, "Histogram: bucket width must be positive");
    check(bucket_count > 0, "Histogram: need at least one bucket");
    check(bucket_count <= INT_MAX, "Histogram: too many buckets");
  }

  [[nodiscard]] double bucket_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();
  }

  /// Bucket index for a non-negative value; values beyond the range clamp
  /// into the last bucket (matches the device kernels, which clamp rather
  /// than branch).
  [[nodiscard]] std::size_t bucket_of(double v) const noexcept {
    return static_cast<std::size_t>(
        bucket_index(v, width_, static_cast<int>(counts_.size())));
  }

  void add(double v, std::uint64_t weight = 1) noexcept {
    counts_[bucket_of(v)] += weight;
  }

  [[nodiscard]] std::uint64_t operator[](std::size_t b) const {
    return counts_.at(b);
  }

  /// Overwrite one bucket (used when importing device results).
  void set_count(std::size_t b, std::uint64_t c) { counts_.at(b) = c; }

  [[nodiscard]] std::span<const std::uint64_t> counts() const noexcept {
    return counts_;
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t s = 0;
    for (const auto c : counts_) s += c;
    return s;
  }

  /// Element-wise merge of another histogram with identical geometry.
  void merge(const Histogram& other) {
    check(other.counts_.size() == counts_.size() && other.width_ == width_,
          "Histogram::merge: geometry mismatch");
    for (std::size_t i = 0; i < counts_.size(); ++i)
      counts_[i] += other.counts_[i];
  }

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  double width_ = 1.0;
  std::vector<std::uint64_t> counts_;
};

/// Radial distribution function g(r): SDH normalized by the ideal-gas shell
/// expectation. `n` is the point count, `box` the cubic box side used to
/// compute number density. Returns one g value per histogram bucket.
std::vector<double> radial_distribution(const Histogram& sdh, std::size_t n,
                                        double box);

}  // namespace tbs
