// Result integrity — algebraic invariants and bit-exact audit comparison.
//
// The resilience ladder only sees *loud* failures (thrown DeviceErrors).
// This module defends against the silently wrong answer: a flipped bit in
// a staged buffer or a histogram accumulator that no exception reports.
// 2-body statistics admit exact algebraic invariants (Eq. 1 of the source
// paper): an SDH over N points must total N(N-1)/2 counts, a cross tile
// over shards a,b must total N_a * N_b, and a PCF pair count can never
// exceed the total pair count; kNN rows and join pairs are checked against
// the kernels' own contract. The checks are linear in the output size —
// O(buckets) for SDH, microseconds against milliseconds of kernel time —
// so they run on every launch.
//
// Violations throw IntegrityError, a *non-transient* vgpu::DeviceError:
// re-running the same launch on the same corrupted lane cannot be trusted,
// so the error enters the retry ladder as a corrupt attempt (lane death in
// the shard executor, failover to an independent backend in the engine).
//
// What invariants cannot see — a staged-buffer flip computes a perfectly
// conserved histogram over slightly-wrong points — is covered by sampled
// cross-backend audits (engine.cpp): re-run on an independent backend,
// compare with results_bit_identical, quarantine on mismatch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/histogram.hpp"
#include "common/points.hpp"
#include "serve/request.hpp"
#include "vgpu/fault.hpp"

namespace tbs::serve {

/// A result failed an algebraic invariant: the lane/backend that produced
/// it is corrupting data. Non-transient — a retry on the same lane proves
/// nothing; the ladder must move to an independent backend.
class IntegrityError : public vgpu::DeviceError {
 public:
  explicit IntegrityError(const std::string& msg)
      : vgpu::DeviceError(msg, /*transient=*/false) {}
};

namespace detail {
inline std::atomic<bool>& integrity_flag() {
  static std::atomic<bool> enabled{[] {
    const char* v = std::getenv("TBS_DISABLE_INTEGRITY");
    return !(v != nullptr && v[0] == '1');
  }()};
  return enabled;
}
}  // namespace detail

/// Process-wide integrity switch. Defaults to on; the environment variable
/// TBS_DISABLE_INTEGRITY=1 (read once, at first check) turns every
/// invariant check into a no-op — the CI negative test proving the chaos
/// matrix *fails* without the defense. Tests may override in-process.
/// (Header-inline so the shard executor can check invariants without a
/// link dependency on the serve library.)
[[nodiscard]] inline bool integrity_enabled() {
  return detail::integrity_flag().load(std::memory_order_relaxed);
}
inline void set_integrity_enabled(bool enabled) {
  detail::integrity_flag().store(enabled, std::memory_order_relaxed);
}

/// Eq. 1 invariants: exact pair counts a correct kernel must conserve.
[[nodiscard]] constexpr std::uint64_t expected_diagonal_pairs(
    std::uint64_t n) noexcept {
  return n < 2 ? 0 : n * (n - 1) / 2;
}
[[nodiscard]] constexpr std::uint64_t expected_cross_pairs(
    std::uint64_t n_a, std::uint64_t n_b) noexcept {
  return n_a * n_b;
}

/// Throws IntegrityError unless `hist` totals exactly `expected_pairs` and
/// has sane geometry. `where` names the call site in the error message.
inline void verify_histogram(const Histogram& hist,
                             std::uint64_t expected_pairs,
                             const char* where) {
  if (!integrity_enabled()) return;
  if (hist.bucket_count() == 0 || hist.bucket_width() <= 0.0)
    throw IntegrityError(std::string(where) +
                         ": histogram has degenerate geometry");
  const std::uint64_t total = hist.total();
  if (total != expected_pairs)
    throw IntegrityError(
        std::string(where) + ": count conservation violated — histogram "
        "totals " + std::to_string(total) + ", Eq. 1 requires " +
        std::to_string(expected_pairs));
}

/// Throws IntegrityError unless `pairs <= max_pairs` (a PCF count can
/// never exceed the number of pairs examined).
inline void verify_pair_count(std::uint64_t pairs, std::uint64_t max_pairs,
                              const char* where) {
  if (!integrity_enabled()) return;
  if (pairs > max_pairs)
    throw IntegrityError(
        std::string(where) + ": pair count " + std::to_string(pairs) +
        " exceeds the " + std::to_string(max_pairs) + " pairs examined");
}

/// Whole-result invariant check for a completed query over `pts`;
/// dispatches on the query kind. Every check is linear in the output size:
/// an SDH conserves N(N-1)/2, a PCF count is at most that, every kNN row
/// holds k ascending distances, and every join pair is canonical (i < j)
/// and passes the kernels' own test dist2(p_i, p_j) < float(r*r). No-op
/// when integrity is disabled.
void verify_result(const Query& q, const PointsSoA& pts, const QueryResult& r,
                   const char* where);

/// Bit-exact payload comparison for the audit layer: histogram counts,
/// pair counts, neighbour lists (join pairs compare as sets — their order
/// is backend-dependent). Execution metadata (KernelStats, the degraded
/// flag) is deliberately ignored: two backends computing the same answer
/// agree on the payload, never on the counters.
[[nodiscard]] bool results_bit_identical(const QueryResult& a,
                                         const QueryResult& b);

}  // namespace tbs::serve
