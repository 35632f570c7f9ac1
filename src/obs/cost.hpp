// Cost attribution — where did each query's time, bytes, and simulated
// cycles actually go?
//
// The metrics registry answers "how many / how fast" in aggregate and the
// tracer answers "what happened inside this one query", but neither gives
// an *accounting*: a decomposition of a query's wall time into phases that
// sums back to the total, with waste (failed attempts, backoff sleeps,
// failover re-execution) itemized instead of silently folded into latency.
// That accounting is what placement decisions (ROADMAP items 1/2/5) need —
// CADISHI-style measured-cost dispatch starts from exactly this ledger.
//
// Model: the serve engine fills one QueryCost per query as it moves through
// the pipeline (queue → plan → stage → launch → merge → cache-fill, plus
// audit when the answer is re-executed on the reference backend). For
// sharded queries the launch phase carries per-tile rows (shard pair, lane,
// seconds, staged bytes, device cycles, failover flag) and the phase's
// seconds are the *sum of tile resource-seconds* — tiles run in parallel,
// so resource-seconds, not wall, is the quantity that must balance: the
// acceptance check is Σ tiles == phases[launch] within 1%. Waste is wall
// time spent on attempts that produced no result (retries, backoff,
// failovers, degraded re-runs) and is accounted separately from the
// productive phases.
//
// The CostLedger aggregates recorded queries per backend, per variant, and
// per dataset, keeps a bounded ring of recent per-query ledgers, exports
// `serve.cost.*` gauges into a MetricsRegistry (picked up by the
// TelemetryBus feed + Prometheus exposition), and serializes everything as
// one JSON document for artifacts and `serve_demo --cost`.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace tbs::obs {

/// Pipeline phases a query's productive time is attributed to.
enum class CostPhase : int {
  Queue = 0,     ///< submit → worker pickup
  Plan = 1,      ///< core::plan() (calibration or cache hit)
  Stage = 2,     ///< operand staging / routing onto lanes
  Launch = 3,    ///< kernel execution (sharded: Σ tile resource-seconds)
  Merge = 4,     ///< partial-result reduction
  CacheFill = 5, ///< result-cache store
  Audit = 6      ///< cross-backend re-execution + bit-exact compare
};
inline constexpr std::size_t kCostPhases = 7;

[[nodiscard]] std::string_view to_string(CostPhase p);

/// Cost of one phase. `seconds` is wall time for host phases and modeled
/// device seconds for launch on the simulated device; cycles/bytes are 0
/// where the phase has no device-side footprint.
struct PhaseCost {
  double seconds = 0.0;
  double device_cycles = 0.0;  ///< simulated warp cycles
  double bytes = 0.0;          ///< bytes staged / transferred
};

/// One tile of a sharded query's launch phase.
struct TileCost {
  int a = 0;  ///< shard pair; a == b for diagonal tiles
  int b = 0;
  std::size_t lane = 0;
  std::string backend;  ///< lane (backend) capability name
  double seconds = 0.0;
  double stage_seconds = 0.0;
  double staged_bytes = 0.0;
  double device_cycles = 0.0;
  bool failover = false;  ///< re-placed off a lost lane
};

/// The complete cost ledger of one query.
struct QueryCost {
  std::uint64_t trace_id = 0;
  std::string kind;  ///< problem kind ("sdh", "pcf", ...)
  std::uint64_t dataset_fp = 0;
  std::string backend;  ///< winning backend (empty on cache hit)
  std::string variant;  ///< winning variant key "<name>/B<block>"
  double total_seconds = 0.0;  ///< submit → completion wall time

  std::array<PhaseCost, kCostPhases> phases{};
  [[nodiscard]] PhaseCost& phase(CostPhase p) {
    return phases[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const PhaseCost& phase(CostPhase p) const {
    return phases[static_cast<std::size_t>(p)];
  }

  /// Wall time burned on attempts that produced no result: failed
  /// launches, backoff sleeps, the pre-failover portion of re-placed work.
  double waste_seconds = 0.0;
  std::uint64_t waste_events = 0;

  bool cache_hit = false;
  bool coalesced = false;
  bool degraded = false;
  bool failover = false;
  bool sharded = false;
  bool failed = false;
  std::uint64_t retries = 0;
  std::uint64_t lanes_lost = 0;
  std::uint64_t tiles_failed_over = 0;

  std::vector<TileCost> tiles;  ///< sharded queries only

  /// Planner's corrected estimate for the winner, its raw estimate, and
  /// the measured seconds on the estimate's own clock (modeled device
  /// seconds for vgpu, wall for cpu) — the feedback loop's triple.
  double estimate_seconds = 0.0;
  double raw_estimate_seconds = 0.0;
  double measured_seconds = 0.0;

  /// Σ phase seconds + waste — what the ledger accounts for. Close to
  /// total_seconds for unsharded queries; for sharded queries the launch
  /// phase is resource-seconds, so this can legitimately exceed wall.
  [[nodiscard]] double attributed_seconds() const;

  /// Σ tile seconds — must equal phase(Launch).seconds within tolerance
  /// for sharded queries (the balance check).
  [[nodiscard]] double tile_seconds() const;

  [[nodiscard]] std::string to_json() const;
};

/// Thread-safe aggregation of QueryCost records with per-backend /
/// per-variant / per-dataset rollups, a bounded ring of recent per-query
/// ledgers, `serve.cost.*` gauge export, and JSON serialization
/// (schema `tbs.cost_ledger.v1`).
class CostLedger {
 public:
  /// Rollup over a set of queries.
  struct Aggregate {
    std::uint64_t queries = 0;
    double total_seconds = 0.0;
    std::array<double, kCostPhases> phase_seconds{};
    double device_cycles = 0.0;
    double bytes = 0.0;
    double waste_seconds = 0.0;
    std::uint64_t waste_events = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t failures = 0;
  };

  explicit CostLedger(std::size_t keep_recent = 256);

  void record(const QueryCost& qc);

  [[nodiscard]] Aggregate total() const;
  [[nodiscard]] std::map<std::string, Aggregate> by_backend() const;
  [[nodiscard]] std::map<std::string, Aggregate> by_variant() const;
  /// Keyed by 16-hex-digit dataset fingerprint.
  [[nodiscard]] std::map<std::string, Aggregate> by_dataset() const;

  /// The most recent `keep_recent` per-query ledgers, oldest first.
  [[nodiscard]] std::vector<QueryCost> recent() const;

  /// Export the rollups as `serve.cost.*` gauges (totals, per-phase
  /// seconds, per-backend and per-variant seconds/queries). The dataset
  /// rollup is deliberately json-only — fingerprints are unbounded and
  /// would blow up metric cardinality.
  void export_metrics(MetricsRegistry& reg) const;

  /// {"schema": "tbs.cost_ledger.v1", "total": ..., "by_backend": ...,
  ///  "by_variant": ..., "by_dataset": ..., "recent": [...]}
  [[nodiscard]] std::string json() const;

  /// json() to `path`; false if the file won't open.
  bool write_json(const std::string& path) const;

 private:
  static void fold(Aggregate& a, const QueryCost& qc);

  std::size_t keep_recent_;
  mutable std::mutex mu_;
  Aggregate total_;
  std::map<std::string, Aggregate> by_backend_;
  std::map<std::string, Aggregate> by_variant_;
  std::map<std::string, Aggregate> by_dataset_;
  std::vector<QueryCost> recent_;  ///< ring, recent_head_ = next slot
  std::size_t recent_head_ = 0;
  bool recent_wrapped_ = false;
};

}  // namespace tbs::obs
