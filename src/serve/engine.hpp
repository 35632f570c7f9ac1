// QueryEngine — the concurrent 2-BS serving layer.
//
// The paper frames 2-BS kernels as building blocks of an analytics
// framework; this is the first layer of the system above a single kernel
// launch. Clients submit typed queries (SDH, PCF, kNN, distance join) from
// any number of threads and get back a shared_future. Internally:
//
//   client threads                 worker threads (one per stream)
//   ──────────────                 ────────────────────────────────
//   result-cache lookup ──hit──▶   (no work: ready future)
//   in-flight coalescing ─dup──▶   (no work: share the winner's future)
//   bounded MPMC queue  ──────▶    pop → core::choose (shared PlanCache,
//     · try_submit: reject when      single-flight calibration, no lock)
//       full (admission control)     → one IBackend::launch under the
//     · submit: block for a slot     worker's slot lock → store in the
//       (backpressure)               result cache → fulfill every promise
//
// Results are deterministic: every kernel the engine dispatches is
// bit-identical between pooled and inline execution (the vgpu runtime
// contract), so an 8-client concurrent run returns exactly what
// the same queries produce sequentially through TwoBodyFramework. The one
// caveat is inherited from the kernels, not the engine: a GlobalCursor
// join's pair *order* is scheduling-dependent (its pair set is not).
//
// Latency (submit → completion) is recorded per query and occupancy and
// throughput per engine, so benches can report p50/p99 and queries/sec.
//
// Resilience (see resilience.hpp for the primitives): every query may carry
// a deadline (expired work is cancelled, not executed); device failures are
// retried with exponential backoff + jitter; each worker has a circuit
// breaker that stops it consuming work while its device looks dead; and
// planned SDH/PCF queries that keep failing fall back to a known-safe
// baseline variant from the registry, tagged `degraded` on the result.
// The full degradation ladder, per dispatch of a job onto a worker:
//
//   planned execute ──(transient DeviceError)──▶ retry w/ backoff (bounded)
//     └─▶ degraded execute (baseline variant, no planner)
//           └─▶ audit escape (kNN/join answer an invariant rejected)
//                 └─▶ requeue for another worker (bounded hand-offs)
//                       └─▶ typed failure delivered to the client
//
// Deterministic application errors (CheckError from bad arguments) skip the
// ladder entirely — re-running a wrong query cannot make it right — and
// never trip the breaker. Degraded answers are functionally correct (every
// registered variant computes the same statistic) but are not stored in
// the result cache, so a later healthy execution replaces them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "backend/cpu_backend.hpp"
#include "backend/vgpu_backend.hpp"
#include "core/feedback.hpp"
#include "core/planner.hpp"
#include "obs/cost.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/flight_recorder.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/resilience.hpp"
#include "serve/result_cache.hpp"
#include "shard/executor.hpp"
#include "shard/router.hpp"
#include "common/rng.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/spec.hpp"
#include "vgpu/stream.hpp"

namespace tbs::serve {

/// Per-submission knobs.
struct SubmitOptions {
  /// Seconds from submission until the query is cancelled. 0 means "use
  /// Config::default_deadline_seconds"; negative means "no deadline" even
  /// when the config sets a default. An expired query is never executed:
  /// its future carries DeadlineExceeded, and blocked submits give up when
  /// the deadline passes while waiting for a queue slot.
  double deadline_seconds = 0.0;
  /// >= 2 fans the query out as one sharded data-parallel job over the
  /// whole worker pool (SDH/PCF only; other query types ignore this).
  /// Sharding is an *execution* option, not part of the query identity:
  /// the cache key is unchanged, so sharded and unsharded submissions of
  /// the same query coalesce and share one cache entry — legitimately,
  /// because the reduction-tree merge is bit-identical to a single-device
  /// run. 0 and 1 mean the ordinary single-backend path.
  std::size_t shards = 0;
  /// How the dataset is split when shards >= 2 (see shard/partition.hpp).
  shard::Strategy shard_strategy = shard::Strategy::Contiguous;
  /// Cost-attribution sink: when set, the engine fills it with the query's
  /// complete cost ledger (phases, tiles, waste, estimate-vs-measured)
  /// before the future becomes ready — so `fut.get(); *opts.cost` is
  /// always consistent. A coalesced submission gets only the coalesced
  /// marker (the work is attributed once, to the winning submission).
  std::shared_ptr<obs::QueryCost> cost;
};

class QueryEngine {
 public:
  struct Config {
    std::size_t devices = 2;            ///< simulated devices in the pool
    std::size_t streams_per_device = 2; ///< vgpu workers = devices * streams
    /// CPU workers appended after the vgpu workers in worker index space;
    /// each owns a CpuBackend (its own thread pool). devices may be 0 when
    /// cpu_workers >= 1 — a CPU-only pool serves every query type.
    std::size_t cpu_workers = 0;
    /// Threads per CPU worker's pool (0 = hardware concurrency).
    unsigned cpu_threads = 0;
    /// Pinned per-pair cost for every CPU backend the engine creates
    /// (workers + the failover rung); 0 = each backend calibrates on first
    /// use. Tests pin a deliberately wrong cost to exercise the planner's
    /// estimate-feedback loop deterministically.
    double cpu_pair_cost_seconds = 0.0;
    /// Cross-backend failover rung: when a vgpu worker exhausts its retry
    /// schedule, run the query on a shared CPU backend (full planned
    /// execution, not tagged degraded) before falling to the registry
    /// baseline. Off by default so single-substrate ladders keep their
    /// historical shape; chaos deployments opt in.
    bool backend_failover = false;
    std::size_t queue_capacity = 64;    ///< admission-control bound
    /// Result-cache entries; 0 disables caching. Full, it evicts by
    /// recompute cost aged by use (result_cache.hpp), LRU among equals.
    std::size_t cache_capacity = 128;
    /// Auto-plan SDH/PCF above this N.
    std::size_t plan_threshold = core::kPlanThreshold;
    bool autostart = true;              ///< spawn workers in the constructor
    vgpu::DeviceSpec spec{};            ///< spec shared by every device
    /// Span sink for the engine's submit/queue/execute/launch spans.
    /// nullptr means obs::Tracer::global() (disabled by default, so tracing
    /// costs one atomic load per span until someone enables it).
    obs::Tracer* tracer = nullptr;
    /// Trace sampling: keep `trace_sample_keep` of every
    /// `trace_sample_of` healthy queries' traces; the rest are dropped from
    /// the tracer at completion. Eventful queries (errors, retries,
    /// failovers, degraded answers, SLO breaches) are *always* kept — the
    /// traces worth reading survive any sampling rate. 1-in-1 (the default)
    /// keeps everything.
    std::size_t trace_sample_keep = 1;
    std::size_t trace_sample_of = 1;
    /// Rolling-window latency/error objectives (obs::SloMonitor), the
    /// engine's only breach gate; latency_seconds <= 0 leaves the monitor
    /// disabled. A breach transition bumps `serve.slo.breached`, dumps the
    /// flight recorder (reason "slo_breach", naming the breaching query's
    /// trace id and latency_seconds as the threshold), and force-retains
    /// that query's trace regardless of sampling.
    obs::SloMonitor::Objective slo{};
    /// Periodic ops export (JSONL feed + Prometheus exposition); enabled
    /// when either path is set. The bus starts with the workers and emits
    /// a final snapshot at shutdown.
    obs::TelemetryBus::Config telemetry{};
    /// Flight-recorder ring size (rounded up to a power of two; 0 disables
    /// event recording entirely).
    std::size_t flight_capacity = 1024;
    /// Where the recorder's automatic dumps go, their window, and whether
    /// sheds and breaker trips dump too (off by default) — see
    /// FlightRecorder::SloPolicy.
    FlightRecorder::SloPolicy flight{};
    /// Retry schedule for transient device faults (attempts per dispatch,
    /// backoff shape, and the bound on cross-worker hand-offs).
    RetryPolicy retry{};
    /// Per-worker circuit-breaker tuning; failure_threshold 0 disables.
    BreakerPolicy breaker{};
    /// Allow the degraded-baseline rung of the ladder (planned SDH/PCF
    /// queries fall back to a fixed registry variant when retries run out).
    bool degrade = true;
    /// Deadline applied to submissions that don't choose their own
    /// (SubmitOptions::deadline_seconds == 0). <= 0 means no default.
    double default_deadline_seconds = 0.0;
    /// Fault-injection plans, one per device (index = device id; shorter
    /// vectors leave the remaining devices healthy). Empty = no chaos.
    std::vector<vgpu::FaultPlan> faults{};
    /// Sampled cross-backend audit rate: this fraction of successfully
    /// completed answers (every query type) is re-executed on the
    /// independent CPU failover backend and compared bit-exact before
    /// delivery. Sampling is deterministic per submission sequence number,
    /// and every invariant-flagged query is audited regardless of the
    /// rate.
    /// A mismatch quarantines the producing worker's breaker, purges the
    /// cache entries that backend wrote, and delivers the audited answer.
    /// 0 disables sampling (flagged queries are still audited when > 0).
    double audit_rate = 0.0;
    /// Straggler hedging for the sharded path: tiles whose lane stalls
    /// longer than this many wall seconds are re-launched on an idle spare
    /// lane, first valid result wins (see shard::Options). 0 disables.
    double shard_hedge_after_seconds = 0.0;
  };

  using ResultFuture = std::shared_future<QueryResult>;

  QueryEngine();  ///< default Config (delegating; GCC rejects `= {}` here)
  explicit QueryEngine(Config cfg);

  /// Calls shutdown() — see below.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // --- typed submission (blocking: backpressure when the queue is full) ---
  ResultFuture sdh(const PointsSoA& pts, double bucket_width, int buckets,
                   const SubmitOptions& opts = {});
  ResultFuture pcf(const PointsSoA& pts, double radius,
                   const SubmitOptions& opts = {});
  ResultFuture knn(const PointsSoA& pts, int k,
                   const SubmitOptions& opts = {});
  ResultFuture join(const PointsSoA& pts, double radius,
                    kernels::JoinVariant variant =
                        kernels::JoinVariant::TwoPhase,
                    const SubmitOptions& opts = {});

  /// Generic blocking submit. Copies the points once per *job*; coalesced
  /// and cached submissions of the same query never copy again.
  ResultFuture submit(Query query, const PointsSoA& pts,
                      const SubmitOptions& opts = {});

  /// Admission-controlled submit: std::nullopt when the queue is full
  /// (the query is shed, not queued). Cache hits and coalesced queries are
  /// always admitted — they add no work.
  std::optional<ResultFuture> try_submit(Query query, const PointsSoA& pts,
                                         const SubmitOptions& opts = {});

  /// Drain and stop: closes the queue, lets workers finish everything
  /// already admitted, then fails jobs still queued with no worker left to
  /// run them (ServeError; recorded as Abandon + `serve.abandoned` so a
  /// shutdown can never drop work silently). Idempotent; the destructor
  /// calls it.
  void shutdown();

  /// Spawn the worker pool (idempotent; called by the constructor unless
  /// Config::autostart is false — tests use the stopped state to fill the
  /// queue deterministically).
  void start();

  /// One consistent health snapshot.
  [[nodiscard]] EngineStats stats() const;

  /// Kernel launches summed over every backend in the pool — devices plus
  /// CPU workers plus the failover backend (the "zero new launches on a
  /// cache hit" assertions key off this).
  [[nodiscard]] std::uint64_t launch_count() const;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return gpu_worker_count() + cfg_.cpu_workers;
  }
  [[nodiscard]] std::size_t gpu_worker_count() const noexcept {
    return cfg_.devices * cfg_.streams_per_device;
  }
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const core::PlanCache& plan_cache() const noexcept {
    return plan_cache_;
  }

  /// The circuit breaker guarding worker `worker` (tests and dashboards
  /// inspect state / opened_count).
  [[nodiscard]] const CircuitBreaker& breaker(std::size_t worker) const {
    return *breakers_.at(worker);
  }

  /// Fault-injection tallies for simulated device `device` (zeroes when no
  /// fault plan is armed). The integrity bench reconciles injected silent
  /// corruptions against caught ones through this.
  [[nodiscard]] vgpu::FaultStats fault_stats(std::size_t device) const;

  /// The engine's metric registry (per-engine, not the process global —
  /// counters like `serve.submitted` are this engine's alone). Counter and
  /// histogram names are catalogued in DESIGN.md "Observability".
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// JSON snapshot of the registry with the derived gauges (queue depth,
  /// occupancy, throughput) refreshed first. What the serve bench writes
  /// as `metrics.json`.
  [[nodiscard]] std::string metrics_json() const;

  /// The tracer spans are emitted to (Config::tracer, or the global one).
  [[nodiscard]] obs::Tracer& tracer() const noexcept { return *tracer_; }

  /// The per-query event ring (capacity Config::flight_capacity). Mutable
  /// access so callers can trigger policy dumps; recording is internal.
  [[nodiscard]] FlightRecorder& flight_recorder() const noexcept {
    return flight_;
  }

  /// Dump the flight recorder to `path` (reason "manual", current p99 and
  /// the SLO latency objective attached). False if the file won't open.
  bool dump_flight(const std::string& path) const;

  /// Partition-aware routing state for the sharded path (tests assert
  /// staging hits/misses/evictions).
  [[nodiscard]] const shard::Router& shard_router() const noexcept {
    return shard_router_;
  }

  /// The rolling-window SLO monitor (disabled unless Config::slo sets a
  /// latency threshold).
  [[nodiscard]] const obs::SloMonitor& slo() const noexcept { return slo_; }

  /// The ops-plane exporter, or nullptr when Config::telemetry set no
  /// paths. Exposed so demos/tests can force a tick.
  [[nodiscard]] obs::TelemetryBus* telemetry() const noexcept {
    return telemetry_.get();
  }

  /// Where every completed query's cost attribution lands (per-backend /
  /// per-variant / per-dataset rollups + a recent ring). Exported as
  /// `serve.cost.*` gauges by metrics_json()/stats().
  [[nodiscard]] const obs::CostLedger& cost_ledger() const noexcept {
    return cost_ledger_;
  }

  /// The planner's measured-vs-estimated feedback state. `enforce()` on it
  /// is the CI accuracy gate; json() lands in bench reports.
  [[nodiscard]] const core::EstimateCorrector& estimate_corrector()
      const noexcept {
    return corrector_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// One admitted unit of work; every coalesced client holds `future`.
  struct Job {
    std::string key;
    Query query;
    Problem problem;  ///< problem_of(query), resolved once at submit
    std::shared_ptr<const PointsSoA> pts;
    std::promise<QueryResult> promise;
    Clock::time_point submitted{};
    /// Cancel-after point; time_point::max() means no deadline.
    Clock::time_point deadline = Clock::time_point::max();
    /// Times this job has been handed back to the queue (breaker bounces
    /// don't count; ladder requeues do, bounded by RetryPolicy).
    int dispatches = 0;
    /// Worker whose ladder last requeued this job; a re-pop by the same
    /// worker bounces so another worker gets the hand-off.
    std::size_t last_worker = static_cast<std::size_t>(-1);
    /// Sharded execution request (SubmitOptions::shards; 0/1 = unsharded).
    std::size_t shards = 0;
    shard::Strategy shard_strategy = shard::Strategy::Contiguous;
    /// Causal identity minted at submit: every span this query produces —
    /// submit, queue wait, execute, retries, shard tiles, kernel launches —
    /// carries ctx.trace_id, and ctx.span_id (the submit span) parents the
    /// cross-thread hop onto the worker. Minted even when tracing is off,
    /// so exemplars and flight dumps can still name the query.
    obs::TraceContext ctx{};
    /// Submission sequence number — the deterministic sampling coordinate.
    std::uint64_t seq = 0;
    /// Running cost attribution for this job. Lives on the job (not the
    /// dispatch stack) so waste burned by a dispatch that ends in Requeue
    /// still reaches the final ledger entry. Only touched by the worker
    /// currently running the job.
    obs::QueryCost cost{};
    /// Client-provided sink (SubmitOptions::cost); filled before the
    /// promise is fulfilled.
    std::shared_ptr<obs::QueryCost> cost_sink;
    /// An eventful kind was noted for this job (see the event table in
    /// engine.cpp): the trace is exempt from sampling. Only touched by the
    /// worker currently running the job.
    bool eventful = false;
    /// Canonical checksum of the submitted coordinates (computed when a
    /// submission becomes a job, from the caller's bytes). The audit layer
    /// re-verifies it before re-executing — staged-buffer verification
    /// that the bytes being audited are the bytes the client submitted.
    std::uint64_t input_checksum = 0;
    /// An execution attempt of this job tripped an algebraic invariant;
    /// the eventual answer is audited unconditionally.
    bool integrity_flagged = false;
  };

  /// One launch substrate of the pool: a simulated device and its one
  /// backend, or a CPU worker's backend, plus the host lock serializing
  /// launches on it. A device's stream workers and its shard lane share
  /// its backend under this lock (a Device is not thread-safe across
  /// lanes); a CPU worker's lock never contends, but the ladder code stays
  /// substrate-agnostic. The lock covers launches only: planning prices
  /// candidates without it (IBackend::estimate).
  struct Slot {
    std::unique_ptr<vgpu::Device> dev;  ///< null for a CPU worker
    /// Borrows dev, so it is declared after it (and destroyed first).
    std::unique_ptr<backend::IBackend> be;
    mutable std::mutex mu;
  };

  /// Everything a worker binds once and threads through the ladder: its
  /// slot's backend and launch lock, and its breaker.
  struct WorkerCtx {
    std::size_t index;
    backend::IBackend& be;
    std::mutex& mu;
    CircuitBreaker& breaker;
  };

  /// How a dispatch of a job onto a worker ended.
  enum class Outcome { Success, Fail, Requeue };

  /// Fast paths + enqueue, shared by submit/try_submit. Returns a future
  /// when served/admitted; nullopt when the queue is full and `block` is
  /// false. Blocks for a free slot (up to the deadline) when `block` is
  /// true.
  std::optional<ResultFuture> submit_impl(Query query, const PointsSoA& pts,
                                          bool block,
                                          const SubmitOptions& opts);

  /// Worker body: pop, run the job through the ladder, fulfill. Wrapped in
  /// a catch-all so no exception — not even a broken promise — can kill
  /// the worker thread.
  void worker_loop(std::size_t worker_index);

  /// One dispatch of `job` on this worker: deadline check, breaker gate,
  /// then the degradation ladder. Delivers the result/error itself except
  /// on Requeue.
  void process_job(WorkerCtx& ctx, Rng& rng, const std::shared_ptr<Job>& job);

  /// The retry → failover → degrade → requeue ladder (everything below the
  /// breaker gate). On Success fills `result` (+ `degraded`); on Fail
  /// fills `error`; on Requeue the job is already back in the queue.
  Outcome run_ladder(WorkerCtx& ctx, Rng& rng, const std::shared_ptr<Job>& job,
                     QueryResult& result, std::exception_ptr& error,
                     bool& degraded, int& attempts);

  /// Who an engine event is about: on the worker path the job (key, trace,
  /// flags, cost ledger); on the submit path, before any job exists, the
  /// key, the root trace, the serve.submit span and the submission's ledger.
  struct Who {
    Who() = default;
    Who(Job& j)  // implicit: every worker-path call site passes *job
        : key(j.key), trace_id(j.ctx.trace_id), job(&j), cost(&j.cost) {}
    Who(std::string_view k, std::uint64_t trace, obs::Span& submit,
        obs::QueryCost& qc)
        : key(k), trace_id(trace), span(&submit), cost(&qc) {}
    std::string_view key;
    std::uint64_t trace_id = 0;
    Job* job = nullptr;
    obs::Span* span = nullptr;
    obs::QueryCost* cost = nullptr;
  };

  /// The engine's one event call: `kind`'s row in the event table
  /// (engine.cpp) decides the counters that get `n`, the ring entries (one
  /// per unit), the eventful flag, the cost-ledger field (`seconds` for a
  /// phase), the submit span's outcome and the dump. n == 0 is a no-op.
  void note(FlightRecorder::Event kind, const Who& who, std::size_t worker = 0,
            std::uint64_t n = 1, double seconds = 0.0);

  /// The one completion, for cache hits and workers alike: latency
  /// reservoir, histogram exemplar, the `kind` event (CacheHit / Complete /
  /// Fail), the SloMonitor (a breach notes SloBreach), ledger and sink.
  void complete(FlightRecorder::Event kind, const Who& who,
                std::size_t worker, double seconds,
                const std::shared_ptr<obs::QueryCost>& sink);

  /// A launch on this worker threw `e`: charge the attempt since `t0` to
  /// waste, note the Fault (after an IntegrityViolation for an
  /// IntegrityError, which the return value reports) and feed the
  /// worker's breaker, noting BreakerOpen when it trips.
  bool note_device_error(WorkerCtx& ctx, Job& job, const vgpu::DeviceError& e,
                         Clock::time_point t0);

  /// Run one query of any type through a backend handle: core::choose
  /// picks the registry variant (the query's default, planned above the
  /// threshold — Tree-SDH included on CPU backends), then one
  /// IBackend::launch runs it under `launch_mu`, the backend's launch
  /// lock. Planning takes no lock of the backend's (IBackend::estimate
  /// runs alongside its launches), so a plan miss's calibration never
  /// holds up the backend's other workers. `degraded` is the known-safe
  /// fallback: the planner is bypassed and the result is tagged degraded.
  /// Fills `qc`'s plan/launch phases and estimate-vs-measured fields
  /// (commit-on-success: a throw leaves `qc` untouched so the caller can
  /// charge the attempt to waste), and feeds the planner's estimate
  /// corrector.
  QueryResult execute(backend::IBackend& be, std::mutex& launch_mu,
                      const Job& job, obs::QueryCost& qc, bool degraded);

  /// The shared CPU backend behind the failover rung, created on first
  /// use under failover_mu_, which is also its launch lock.
  backend::CpuBackend& failover_backend();

  /// True when the query has a degraded rung distinct from its normal path:
  /// its problem has plannable variants (SDH/PCF; kNN and join already run
  /// their fixed variant).
  static bool has_degraded_rung(const Job& job);

  /// True when the job asked for sharded execution and the query type
  /// supports it (SDH/PCF — the 2-BS kernels with a tile decomposition).
  static bool wants_sharding(const Job& job);

  /// Fan one query out as K shards × tiles over the whole backend pool
  /// (every device + every CPU worker as a lane), merge with the reduction
  /// tree, and fill `result`. Runs *before* run_ladder takes ctx.mu — the
  /// executor locks each lane's mutex per tile launch. Returns false (with
  /// `error` set) to let the job fall through to the ordinary unsharded
  /// ladder.
  bool run_sharded(WorkerCtx& ctx, const std::shared_ptr<Job>& job,
                   QueryResult& result, std::exception_ptr& error,
                   obs::QueryCost& qc);

  /// Sampled cross-backend audit (the integrity tentpole's last line of
  /// defense): decide whether this completed answer is audited (deterministic
  /// per-seq sampling, or unconditionally when the job is
  /// integrity-flagged), re-execute it on the independent CPU failover
  /// backend, and compare bit-exact. On mismatch: quarantine the producing
  /// worker's breaker, purge the cache entries its backend wrote, and
  /// replace `result` with the audited answer. Returns true when the
  /// result was replaced (the caller treats it as degraded — correct but
  /// not cacheable).
  bool maybe_audit(WorkerCtx& ctx, const std::shared_ptr<Job>& job,
                   QueryResult& result);

  /// Reject malformed submissions (non-finite coordinates, non-positive
  /// bucket width/radius, k < 1) with InvalidQueryError *before*
  /// fingerprinting.
  void validate_input(const Query& query, const PointsSoA& pts);

  /// Resolve a submission's deadline (options override config default).
  Clock::time_point deadline_from(const SubmitOptions& opts,
                                  Clock::time_point now) const;

  /// Refresh the derived gauges from a snapshot (stats() / metrics_json()).
  void refresh_gauges(const EngineStats& s) const;

  Config cfg_;
  obs::Tracer* tracer_;  ///< never null (Config::tracer or the global)
  mutable FlightRecorder flight_;

  /// Per-engine registry; declared before the instrument pointers below
  /// and before slots_ (device launch observers touch the counters, and
  /// members destroy in reverse order).
  mutable obs::MetricsRegistry metrics_;
  /// Every `serve.*` counter an event bumps, resolved once at construction
  /// and indexed by the counter table in engine.cpp.
  std::vector<obs::Counter*> counters_;
  obs::FixedHistogram& h_latency_;
  /// Per-worker in-flight gauges (`serve.worker.<i>.inflight`), resolved
  /// once at construction so the worker loop pays one relaxed store per
  /// transition.
  std::vector<obs::Gauge*> g_worker_inflight_;

  /// Every device's slot, then every CPU worker's: worker w runs on slot
  /// w / streams_per_device when it is a vgpu worker, and on slot
  /// devices + (w - gpu_worker_count()) otherwise. Owned by the engine
  /// (not the worker threads) so launch_count() and stats() can read the
  /// counters at any time.
  std::vector<Slot> slots_;
  /// The sharded path's lanes, one per slot in slot order ("gpu<d>",
  /// "cpu<i>"), so tile launches serialize on the slots' locks against
  /// the regular workers. A stable lane index is what makes the router's
  /// staged-set bookkeeping meaningful between queries.
  std::vector<shard::Lane> shard_lanes_;
  /// Cross-backend failover target (lazy; guarded by failover_mu_, which
  /// is mutable so launch_count() can read the counters).
  mutable std::mutex failover_mu_;
  std::unique_ptr<backend::CpuBackend> failover_cpu_;
  /// Which shard fingerprints are staged on which lane — partition-aware
  /// routing keeps a shard's tiles on the lane already holding its data.
  shard::Router shard_router_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;  ///< per worker
  BoundedQueue<std::shared_ptr<Job>> queue_;
  ResultCache cache_;
  core::PlanCache plan_cache_;

  mutable std::mutex mu_;  ///< guards inflight_, started_
  std::unordered_map<std::string, ResultFuture> inflight_;
  bool started_ = false;

  /// Per-query cost attribution (tentpole of the cost/feedback plane).
  /// Internally locked; mutable so refresh_gauges (const) can export it.
  mutable obs::CostLedger cost_ledger_;
  /// EWMA measured/estimated feedback per (backend, variant, N-bucket),
  /// consulted by every core::plan() call the engine makes.
  core::EstimateCorrector corrector_;

  LatencyRecorder latency_;
  std::atomic<std::int64_t> busy_ns_{0};  ///< summed worker execution time
  std::atomic<std::uint64_t> submit_seq_{0};  ///< Job::seq mint
  obs::SloMonitor slo_;
  std::unique_ptr<obs::TelemetryBus> telemetry_;  ///< null when disabled
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::thread> workers_;
};

}  // namespace tbs::serve
