// Kernel planner — the seed of the paper's envisioned framework that
// "automatically generates optimized code for any new 2-BS problem"
// (Sec. I & V). Given a problem instance and a target size, the planner
// simulates every planner-eligible registry variant at three small
// calibration sizes (one, two and three blocks of the candidate's block
// size on vgpu), extrapolates the counters with perfmodel::StatsPoly,
// prices them with perfmodel::model_time, and picks the cheapest.
//
// The generic entry point is plan(): it enumerates KernelRegistry rather
// than a per-problem table, so a new statistic becomes plannable the moment
// its variants register. Each candidate is priced by its backend's
// estimate(), which leaves the backend's serving state alone (vgpu
// calibration launches run on cold twins of the device), so plan() prices
// all candidates of a miss at once, as tasks on the vgpu block queue, and
// needs no launch lock of the backends it prices. Pass a PlanCache to
// memoize plans across queries (calibration is the expensive part — a hit
// costs zero launches).
//
// choose() is the one variant-choice rule both front doors (QueryEngine
// and TwoBodyFramework) launch through: the query's default variant, the
// planner above kPlanThreshold points, a launchable substitute when the
// backend cannot run the default.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include <span>

#include "backend/backend.hpp"
#include "common/points.hpp"
#include "core/feedback.hpp"
#include "kernels/registry.hpp"

namespace tbs::core {

/// Auto-planning threshold: at or below this many points, calibrating
/// costs more than it saves, so a launch runs the problem's default.
inline constexpr std::size_t kPlanThreshold = 2048;

/// One priced candidate considered by the planner.
struct Candidate {
  std::string name;
  double predicted_seconds = 0.0;
  std::string bottleneck;
  std::string backend;  ///< Capabilities::name of the pricing backend
  /// The backend's raw estimate before any EstimateCorrector factor —
  /// kept so a memoized plan can be re-ranked with *current* factors on a
  /// cache hit, without re-pricing a single candidate.
  double raw_seconds = 0.0;
  const kernels::KernelVariant* kernel = nullptr;  ///< re-rank rebinds this
  int block_size = 256;
  backend::Kind kind = backend::Kind::Vgpu;
};

/// A generic plan: the winning (backend, registry variant, block size).
/// The backend is identified by kind + capability name, never by pointer —
/// plans outlive the backends that priced them (PlanCache), and a consumer
/// re-binds by matching backend_name against its own backend set.
struct Plan {
  const kernels::KernelVariant* kernel = nullptr;
  int block_size = 256;
  double predicted_seconds = 0.0;
  backend::Kind backend = backend::Kind::Vgpu;
  std::string backend_name;  ///< e.g. "vgpu:sim-titan-x", "cpu:8w"
  /// Winner's raw (uncorrected) estimate — what the serving layer feeds
  /// back to the EstimateCorrector alongside the measured seconds.
  double raw_predicted_seconds = 0.0;
  /// Winner's candidate name ("<variant>/B<block>") — the corrector's
  /// variant key, so the feedback loop keys exactly what was priced.
  std::string variant_key;
  std::vector<Candidate> considered;  ///< all candidates, priced
};

/// Memoization key for a planning request: for every backend in the set
/// (order-sensitive), its identity (capability name + parallel units +
/// shared budget) and the problem as its prices read it
/// (backend::priced_problem: a vgpu backend's leaves out a PCF radius,
/// which moves no counter, so every radius shares one vgpu calibration;
/// a CPU backend's keeps it); then the target size rounded up to a power
/// of two (the time model is smooth in N, so nearby sizes share a plan).
/// Each double is written so that it reads back exactly. Two engines
/// planning over equivalent pools share entries; a different pool
/// composition never aliases.
std::string plan_cache_key(std::span<backend::IBackend* const> backends,
                           const kernels::ProblemDesc& desc, double target_n);

/// Thread-safe plan memo. Keyed by plan_cache_key(); hit/miss counters are
/// exposed so tests (and ops dashboards) can assert cache effectiveness.
///
/// Concurrency contract (the serve layer's workers all share one cache):
/// lookups take a shared lock, so hits never serialize behind each other,
/// and calibration is single-flight — plan() holds the key's calibration
/// gate while simulating, so N threads missing on the same key run exactly
/// one calibration round between them (the rest block, then hit).
class PlanCache {
 public:
  [[nodiscard]] std::optional<Plan> find(const std::string& key) const;
  void store(const std::string& key, const Plan& plan);

  /// Per-key calibration gate: plan() holds this mutex across the miss path
  /// (calibrate + store) so concurrent misses on one key calibrate once.
  /// The gate outlives the cache entry; one gate per distinct key ever seen.
  [[nodiscard]] std::shared_ptr<std::mutex> calibration_gate(
      const std::string& key);

  /// find() without touching the hit/miss counters — the double-check a
  /// gate loser performs is not a client lookup and must not skew stats.
  [[nodiscard]] std::optional<Plan> peek(const std::string& key) const;

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, Plan> plans_;
  std::map<std::string, std::shared_ptr<std::mutex>> gates_;  ///< under mu_
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

/// Plan a run of `target_n` points of the described problem over a set of
/// backends: every (backend × supported variant × block size) candidate is
/// priced through the backend's own cost model (Eqs. 2–7 for vgpu, the
/// calibrated throughput model for CPU), all at once, and the cheapest wins
/// (the first in candidate order on a tie, whatever order pricing ends in).
/// When candidates throw, plan() waits for the rest and rethrows the first
/// candidate's error. `sample`
/// supplies the data distribution for calibration (a subset is used; it
/// may be much smaller than target_n). Candidates a backend cannot launch
/// (shared-memory demand over the device cap, missing substrate support)
/// are skipped; throws CheckError if no candidate is launchable anywhere.
/// With a cache, a repeat request returns the memoized plan without a
/// single calibration launch.
///
/// `corrector` (optional) closes the measured-vs-estimate feedback loop:
/// every candidate's raw estimate is multiplied by the corrector's EWMA
/// factor for its (backend, variant, N-bucket) key before the winner is
/// picked, and a cache *hit* is re-ranked from its stored raw estimates
/// with the factors in force now — so placement improves online while the
/// cache still costs zero launches.
Plan plan(std::span<backend::IBackend* const> backends,
          const PointsSoA& sample, const kernels::ProblemDesc& desc,
          double target_n, PlanCache* cache = nullptr,
          const EstimateCorrector* corrector = nullptr);

/// What one launch runs: a registry variant at a block size, plus the plan
/// that picked them when the planner ran.
struct Choice {
  const kernels::KernelVariant* kernel = nullptr;
  int block_size = 256;
  std::optional<Plan> plan;
};

/// Choose the launch of `pts` on `be`. The default is `preferred` (null:
/// the problem's registry baseline) at `block_size`. Above
/// `plan_threshold` points, and only when `be` has
/// plannable variants for the problem, the planner prices `be`'s own
/// catalogue instead (memoized in `cache`, estimates corrected by
/// `corrector`). A backend that cannot launch the default gets its first
/// launchable variant for the problem. Throws CheckError when nothing is
/// launchable.
Choice choose(backend::IBackend& be, const PointsSoA& pts,
              const kernels::ProblemDesc& desc,
              const kernels::KernelVariant* preferred, int block_size,
              std::size_t plan_threshold, PlanCache* cache,
              const EstimateCorrector* corrector = nullptr);

}  // namespace tbs::core
