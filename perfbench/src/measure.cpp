#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/// Samples strictly beyond the q-quantile of n samples: floor(n * (1 - q)).
std::size_t samples_beyond(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty())
    throw std::domain_error("percentile of an empty sample");
  if (q < 0.0 || q > 1.0) throw std::domain_error("quantile outside [0, 1]");
  if (q > 0.5 && samples_beyond(samples.size(), q) < 10)
    throw std::domain_error("p" + std::to_string(q * 100.0) + " refused: " +
                            std::to_string(samples.size()) +
                            " samples leave fewer than ten beyond it");
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Tally::error_rate() const {
  if (submitted == 0) return 0.0;
  return static_cast<double>(failures()) / static_cast<double>(submitted);
}

double now_seconds() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::uint32_t SpanLog::reserve() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = next_id_++;
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[i] = spans[i].seconds() - covered;
  }
  return out;
}

}  // namespace perfbench
