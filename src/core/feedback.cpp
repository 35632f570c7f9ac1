#include "core/feedback.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace tbs::core {

namespace json = tbs::obs::json;

std::uint64_t estimate_n_bucket(double n) {
  std::uint64_t bucket = 1;
  while (static_cast<double>(bucket) < n) bucket <<= 1;
  return bucket;
}

std::string EstimateCorrector::key_of(std::string_view backend,
                                      std::string_view variant,
                                      std::uint64_t n_bucket) {
  std::string key(backend);
  key += '|';
  key += variant;
  key += "|N";
  key += std::to_string(n_bucket);
  return key;
}

double EstimateCorrector::clamped_factor(const Entry& e) {
  if (e.samples < kMinSamples) return 1.0;
  return std::clamp(e.ewma_ratio, kMinFactor, kMaxFactor);
}

void EstimateCorrector::observe(std::string_view backend,
                                std::string_view variant, double target_n,
                                double estimated_raw, double measured) {
  if (!(estimated_raw > 0.0) || !(measured > 0.0)) return;
  const std::string key =
      key_of(backend, variant, estimate_n_bucket(target_n));
  const double ratio = measured / estimated_raw;
  const double err_raw = std::abs(estimated_raw - measured) / measured;

  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[key];
  // Error of the correction *as applied*: the factor in force before this
  // observation is what plan() actually multiplied by.
  const double applied = clamped_factor(e);
  const double err_corr =
      std::abs(estimated_raw * applied - measured) / measured;
  e.sum_err_uncorrected += err_raw;
  e.sum_err_corrected += err_corr;
  e.recent_err_corrected =
      e.samples == 0
          ? err_corr
          : (1.0 - kAlpha) * e.recent_err_corrected + kAlpha * err_corr;
  e.ewma_ratio = e.samples == 0
                     ? ratio
                     : (1.0 - kAlpha) * e.ewma_ratio + kAlpha * ratio;
  ++e.samples;
  obs::MetricsRegistry::global().counter("planner.estimate.observations").inc();
}

double EstimateCorrector::factor(std::string_view backend,
                                 std::string_view variant,
                                 double target_n) const {
  const std::string key =
      key_of(backend, variant, estimate_n_bucket(target_n));
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return 1.0;
  return clamped_factor(it->second);
}

EstimateCorrector::Stats EstimateCorrector::stats(std::string_view backend,
                                                  std::string_view variant,
                                                  double target_n) const {
  const std::string key =
      key_of(backend, variant, estimate_n_bucket(target_n));
  Stats out;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return out;
  const Entry& e = it->second;
  out.samples = e.samples;
  out.factor = clamped_factor(e);
  out.mae_uncorrected =
      e.samples == 0 ? 0.0
                     : e.sum_err_uncorrected / static_cast<double>(e.samples);
  out.mae_corrected =
      e.samples == 0 ? 0.0
                     : e.sum_err_corrected / static_cast<double>(e.samples);
  out.recent_err_corrected = e.recent_err_corrected;
  return out;
}

EstimateCorrector::Stats EstimateCorrector::overall() const {
  Stats out;
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t hottest = 0;
  double sum_raw = 0.0;
  double sum_corr = 0.0;
  double recent_weighted = 0.0;
  for (const auto& [key, e] : entries_) {
    out.samples += e.samples;
    sum_raw += e.sum_err_uncorrected;
    sum_corr += e.sum_err_corrected;
    recent_weighted +=
        e.recent_err_corrected * static_cast<double>(e.samples);
    if (e.samples > hottest) {
      hottest = e.samples;
      out.factor = clamped_factor(e);
    }
  }
  if (out.samples > 0) {
    out.mae_uncorrected = sum_raw / static_cast<double>(out.samples);
    out.mae_corrected = sum_corr / static_cast<double>(out.samples);
    out.recent_err_corrected =
        recent_weighted / static_cast<double>(out.samples);
  }
  return out;
}

std::uint64_t EstimateCorrector::keys() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t EstimateCorrector::observations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, e] : entries_) total += e.samples;
  return total;
}

void EstimateCorrector::enforce(double tolerance) const {
  check(tolerance > 0.0, "EstimateCorrector::enforce: tolerance must be > 0");
  std::string worst_key;
  double worst_err = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, e] : entries_) {
      if (e.samples < kMinSamples) continue;
      if (e.recent_err_corrected > worst_err) {
        worst_err = e.recent_err_corrected;
        worst_key = key;
      }
    }
  }
  check(worst_err <= tolerance,
        "EstimateCorrector: corrected estimate error " +
            std::to_string(worst_err) + " exceeds tolerance " +
            std::to_string(tolerance) + " for key " + worst_key);
}

std::string EstimateCorrector::json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, e] : entries_) total += e.samples;
  std::string out = "{\"keys\": " + std::to_string(entries_.size()) +
                    ", \"observations\": " + std::to_string(total) +
                    ", \"entries\": {";
  bool first = true;
  for (const auto& [key, e] : entries_) {
    if (!first) out += ", ";
    first = false;
    const double n = std::max<double>(1.0, static_cast<double>(e.samples));
    out += '"';
    out += json::escape(key);
    out += "\": {\"samples\": ";
    out += std::to_string(e.samples);
    out += ", \"factor\": ";
    out += json::number(clamped_factor(e));
    out += ", \"mae_uncorrected\": ";
    out += json::number(e.sum_err_uncorrected / n);
    out += ", \"mae_corrected\": ";
    out += json::number(e.sum_err_corrected / n);
    out += ", \"recent_err_corrected\": ";
    out += json::number(e.recent_err_corrected);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace tbs::core
