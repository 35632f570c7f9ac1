// Executor — runs one 2-BS query as a sharded, data-parallel job over a
// pool of heterogeneous execution lanes, with failover.
//
// Pipeline for one run():
//   1. Partition the dataset into K shards (partition.hpp).
//   2. Enumerate the K diagonal + K(K-1)/2 cross tiles and place them on
//      lanes with shard affinity (tiles.hpp).
//   3. Stage each lane's operand shards (deduped through the Router so a
//      warm lane moves zero bytes), then execute its tiles — diagonal
//      tiles through IBackend::launch() with the chosen registry variant,
//      cross tiles through IBackend::launch_cross() — one thread per lane.
//   4. If a lane throws vgpu::DeviceError, the lane is dead: its staged
//      set is evicted and only its *incomplete* tiles are re-executed on
//      surviving lanes (completed partials are kept — integer partials
//      need no undo). The failover hook fires once per lost lane.
//   5. Merge tile partials with the pairwise reduction tree (merge.hpp).
//
// Timing: each tile is charged its modeled kernel seconds on a vgpu lane
// (perfmodel::model_time over the measured counters) or its wall seconds
// on a CPU lane; the report's kernel_seconds is the *maximum* over lanes
// of their summed tile seconds — the makespan of the parallel schedule,
// directly comparable to a single-device run's kernel seconds.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "common/histogram.hpp"
#include "common/points.hpp"
#include "obs/trace.hpp"
#include "shard/partition.hpp"
#include "shard/router.hpp"
#include "shard/tiles.hpp"

namespace tbs::shard {

/// One execution lane: a backend plus the mutex serializing launches on
/// its substrate (serve lends its per-worker slot mutexes so sharded and
/// regular queries interleave safely; standalone callers may pass null
/// when nothing else launches on the backend).
struct Lane {
  backend::IBackend* be = nullptr;
  std::mutex* mu = nullptr;
  std::string name;  ///< audit label; defaults to be->caps().name
};

/// Knobs for one sharded run.
struct Options {
  std::size_t shards = 1;
  Strategy strategy = Strategy::Contiguous;
  /// Kernel for the diagonal tiles; null picks the problem's dual-backend
  /// default (Reg-ROC-Out for SDH, Register-ROC for PCF). Must be
  /// launchable on every lane. Cross tiles always use the substrate's
  /// fixed cross kernel (backend::IBackend::launch_cross).
  const kernels::KernelVariant* variant = nullptr;
  int block_size = 256;
  /// Trace context of the owning query, installed on every lane thread so
  /// backend launch-observer spans recorded there join the query's trace.
  /// Invalid (default) = lane threads run trace-context-free.
  obs::TraceContext trace{};
  /// Straggler hedging: when > 0, a watchdog re-executes any tile whose
  /// lane has been busy on it longer than this many wall seconds onto an
  /// idle spare lane. First valid result wins; the loser's wall time is
  /// charged to waste. 0 disables hedging.
  double hedge_after_seconds = 0.0;
};

/// Audit record of one executed tile — the row a cost ledger attributes
/// sharded launch time to.
struct TileSpan {
  Tile tile;
  std::size_t lane = 0;    ///< lane that produced the kept partial
  std::string lane_name;   ///< that lane's audit label / backend name
  double seconds = 0.0;    ///< modeled (vgpu) or wall (cpu) kernel time
  double stage_seconds = 0.0;   ///< staging wall of the kept attempt
  std::size_t staged_bytes = 0; ///< bytes the kept attempt moved
  double device_cycles = 0.0;   ///< simulated warp cycles (0 on cpu)
  bool failover = false;   ///< re-executed after its original lane died
  bool hedged = false;     ///< kept partial came from a hedge attempt
};

/// Everything a sharded run produced.
struct Report {
  Histogram hist;              ///< SDH answer (empty geometry for PCF)
  std::uint64_t pairs = 0;     ///< PCF answer
  vgpu::KernelStats stats;     ///< merged over all executed tiles
  double kernel_seconds = 0.0; ///< makespan: max over lanes of tile sums
  double merge_seconds = 0.0;  ///< wall time of the reduction tree
  double stage_seconds = 0.0;  ///< summed staging wall of kept attempts
  /// Wall time burned on attempts that produced no kept partial: failed
  /// transient retries and the dying attempt that cost a lane. Itemized
  /// separately so productive tile seconds stay clean.
  double waste_seconds = 0.0;
  std::uint64_t waste_events = 0;
  std::size_t shards = 0;
  std::size_t lanes_used = 0;
  std::size_t lanes_lost = 0;
  std::size_t tiles_total = 0;
  std::size_t tiles_failed_over = 0;
  /// Straggler hedges: attempts launched by the watchdog, and how many of
  /// them won the race (the stalled primary's time went to waste instead).
  std::size_t tiles_hedged = 0;
  std::size_t hedge_wins = 0;
  /// Tile results that failed an algebraic invariant (count conservation);
  /// each cost its lane and was re-executed on an independent one.
  std::uint64_t integrity_violations = 0;
  std::size_t staged_bytes = 0;
  /// What copying the whole dataset to every lane would have moved: the
  /// lane count x the full dataset.
  std::size_t replicated_bytes = 0;
  std::string variant_name;
  std::vector<TileSpan> spans;  ///< tile-id order, one entry per tile
};

class Executor {
 public:
  /// Fires when a lane is lost: (lane index, tiles rerouted to survivors).
  using FailoverHook =
      std::function<void(std::size_t lane, std::size_t tiles)>;

  /// `router` may be null (every run stages from scratch); when set, it
  /// must outlive the executor and is shared across runs for warm staging.
  explicit Executor(Router* router = nullptr) : router_(router) {}

  /// Execute `desc` over `pts` sharded K ways across `lanes`. Throws
  /// vgpu::DeviceError only when every lane has died.
  Report run(std::span<const Lane> lanes, const PointsSoA& pts,
             const kernels::ProblemDesc& desc, const Options& opt,
             const FailoverHook& on_failover = {});

 private:
  Router* router_;
};

}  // namespace tbs::shard
