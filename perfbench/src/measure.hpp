// Measurement helpers of the benchmark: percentiles that refuse thin
// tails, the error-rate tally, and in-memory spans with self time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The q-quantile (linear interpolation between order statistics at rank
/// q * (n - 1)). A tail quantile (q > 0.5) is refused with
/// std::domain_error when fewer than ten samples lie beyond it, and every
/// quantile is refused on an empty sample.
double percentile(std::vector<double> samples, double q);

/// Outcome tally of one timed phase. Wrong answers count as failures.
struct Tally {
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;    ///< the future carried an exception
  std::uint64_t rejected = 0;  ///< refused by admission control
  std::uint64_t wrong = 0;     ///< answered, but differs from the reference

  [[nodiscard]] std::uint64_t failures() const {
    return failed + rejected + wrong;
  }
  /// (failed + rejected + wrong) / submitted; 0 when nothing was submitted.
  [[nodiscard]] double error_rate() const;
};

using Clock = std::chrono::steady_clock;

/// Seconds since the first call in this process (a common time base for
/// every span, whichever thread records it).
double now_seconds();

/// One timed call into a layer's public entry point.
struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 is "no span"
  std::uint32_t parent = 0;  ///< the span that caused this one, or 0
  std::uint64_t query = 0;   ///< every span of one query shares this
  std::string name;          ///< e.g. "backend.launch"
  std::string layer;         ///< module under src/ the time belongs to
  std::string kind;          ///< query kind ("sdh", "pcf", "knn", "join")
  double start = 0.0;        ///< now_seconds() at entry
  double end = 0.0;          ///< now_seconds() at return
  double pairs = 0.0;        ///< distance pairs the call evaluated, if any

  [[nodiscard]] double seconds() const { return end - start; }
};

/// Thread-safe in-memory span store; written out only at the end.
class SpanLog {
 public:
  /// Reserve an id for a span that opens now (so children can name it as
  /// their parent before it closes).
  std::uint32_t reserve();
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its direct children cover. Overlapping
/// children (parallel lanes) are counted once.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
