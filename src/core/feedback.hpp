// EstimateCorrector — online measured-vs-estimate feedback for the planner.
//
// IBackend::estimate() prices candidates from an analytical model (Eqs. 2–7
// on the simulated device, a calibrated throughput model on the CPU). Both
// models carry systematic bias: the StatsPoly extrapolation drifts with the
// data distribution, and the CPU per-pair cost calibrated at one size is
// wrong at another. This class closes the loop: after every real execution
// the serving layer reports (backend, variant, N, estimated, measured), and
// the corrector maintains an EWMA of the measured/estimated ratio per
// (backend, variant, N-bucket) key — the same power-of-two N bucketing the
// PlanCache uses, so a correction learned at one size applies to every plan
// the cache would share at that size.
//
// core::plan() multiplies each candidate's raw estimate by the key's
// current factor before picking a winner, and re-ranks memoized plans from
// their stored raw estimates on every cache hit — so placement decisions
// improve online without a single extra calibration launch.
//
// Accuracy accounting: every observation records the relative error of the
// raw estimate and of the corrected estimate *as it was applied* (the
// factor in force before this observation updated it). `enforce()` is the
// drift-style gate: it fails loudly when any warmed-up key's recent
// corrected error exceeds tolerance — the signal that the model, the
// correction, and reality have come apart.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace tbs::core {

/// The planner's N bucketing: `n` rounded up to a power of two (>= 1).
std::uint64_t estimate_n_bucket(double n);

class EstimateCorrector {
 public:
  /// EWMA smoothing for the ratio and the recent-error tracker.
  static constexpr double kAlpha = 0.3;
  /// Correction factors are clamped to [kMinFactor, kMaxFactor] so one
  /// absurd measurement (a stalled launch) cannot poison placement.
  static constexpr double kMinFactor = 0.05;
  static constexpr double kMaxFactor = 20.0;
  /// Observations before factor() departs from 1.0 — a single noisy
  /// sample must not start steering the planner.
  static constexpr std::uint64_t kMinSamples = 3;

  /// Accuracy statistics for one key (or aggregated over all keys).
  struct Stats {
    std::uint64_t samples = 0;
    double factor = 1.0;  ///< current multiplier (1.0 until warmed up)
    /// Cumulative mean |estimate - measured| / measured of the raw
    /// estimate, and of the corrected estimate as applied per observation.
    double mae_uncorrected = 0.0;
    double mae_corrected = 0.0;
    /// EWMA of the corrected relative error — the "recent" accuracy the
    /// drift gate judges (a converged corrector pushes this toward the
    /// model's irreducible noise; a blowout spikes it immediately).
    double recent_err_corrected = 0.0;
  };

  /// Record one execution: the raw (uncorrected) estimate the backend gave
  /// for the winning candidate and the measured seconds on the same clock
  /// (modeled device seconds for vgpu, wall seconds for cpu). Non-positive
  /// inputs are ignored — there is nothing to learn from them.
  void observe(std::string_view backend, std::string_view variant,
               double target_n, double estimated_raw, double measured);

  /// Multiplier to apply to a raw estimate for this key; 1.0 until the key
  /// has kMinSamples observations.
  [[nodiscard]] double factor(std::string_view backend,
                              std::string_view variant,
                              double target_n) const;

  [[nodiscard]] Stats stats(std::string_view backend,
                            std::string_view variant, double target_n) const;

  /// Sample-weighted aggregate over every key (factor is the hottest
  /// key's).
  [[nodiscard]] Stats overall() const;

  [[nodiscard]] std::uint64_t keys() const;

  /// Total observations across keys (cheap; what dashboards poll).
  [[nodiscard]] std::uint64_t observations() const;

  /// Drift-style accuracy gate: throws CheckError naming the worst key when
  /// any key with >= kMinSamples observations has recent_err_corrected
  /// above `tolerance`.
  void enforce(double tolerance) const;

  /// {"keys": N, "observations": N, "entries": {"<key>": {...}}}
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::uint64_t samples = 0;
    double ewma_ratio = 1.0;  ///< EWMA of measured / estimated_raw
    double sum_err_uncorrected = 0.0;
    double sum_err_corrected = 0.0;
    double recent_err_corrected = 0.0;
  };

  [[nodiscard]] static std::string key_of(std::string_view backend,
                                          std::string_view variant,
                                          std::uint64_t n_bucket);
  [[nodiscard]] static double clamped_factor(const Entry& e);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace tbs::core
