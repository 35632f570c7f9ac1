#include "serve/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "kernels/registry.hpp"
#include "obs/profile.hpp"
#include "perfmodel/timemodel.hpp"
#include "serve/integrity.hpp"

namespace tbs::serve {

namespace {

/// Block size of every unplanned launch.
constexpr int kDefaultBlock = 256;

/// Seed of the per-submission audit coin.
constexpr std::uint64_t kAuditSeed = 0xA0D17ULL;

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Canonical checksum of a point set's coordinate payload (the value the
/// audit layer re-verifies before trusting a staged buffer).
std::uint64_t points_checksum(const PointsSoA& pts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = (h ^ checksum(pts.x())) * 0x100000001b3ULL;
  h = (h ^ checksum(pts.y())) * 0x100000001b3ULL;
  h = (h ^ checksum(pts.z())) * 0x100000001b3ULL;
  return h;
}

using Event = FlightRecorder::Event;
using EC = EngineCounters;

/// Every counter an engine event bumps, and the EngineCounters field
/// stats() copies it into (serve.slo.breached has none). Resolved once at
/// construction into QueryEngine::counters_, in this order.
struct CounterDef {
  const char* name;
  std::uint64_t EC::*field;
};
constexpr CounterDef kCounters[] = {
    {"serve.submitted", &EC::submitted}, {"serve.rejected", &EC::rejected},
    {"serve.coalesced", &EC::coalesced}, {"serve.cache_hits", &EC::cache_hits},
    {"serve.executed", &EC::executed}, {"serve.completed", &EC::completed},
    {"serve.failed", &EC::failed}, {"serve.faults", &EC::faults},
    {"serve.retries", &EC::retries}, {"serve.degraded", &EC::degraded},
    {"serve.breaker_opens", &EC::breaker_opens},
    {"serve.failovers", &EC::failovers}, {"serve.expired", &EC::expired},
    {"serve.requeued", &EC::requeued}, {"serve.abandoned", &EC::abandoned},
    {"serve.rejected_invalid", &EC::rejected_invalid},
    {"serve.slo.breached", nullptr},
    {"serve.shard.queries", &EC::shard_queries},
    {"serve.shard.tiles", &EC::shard_tiles},
    {"serve.shard.lanes_lost", &EC::shard_lanes_lost},
    {"serve.shard.tiles_failed_over", &EC::shard_tiles_failed_over},
    {"serve.shard.tiles_hedged", &EC::shard_tiles_hedged},
    {"serve.shard.hedge_wins", &EC::shard_hedge_wins},
    {"serve.integrity.invariant_violations", &EC::integrity_violations},
    {"serve.integrity.audits", &EC::audits},
    {"serve.integrity.audit_mismatches", &EC::audit_mismatches},
    {"serve.integrity.quarantines", &EC::quarantines},
    {"serve.integrity.cache_invalidated", &EC::cache_invalidated},
};
static_assert(std::size(kCounters) <= 32, "EventRow::counters is 32 bits");

/// The counter-mask bit of a kCounters name (a typo fails to compile).
constexpr std::uint32_t C(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kCounters); ++i)
    if (name == kCounters[i].name) return 1u << i;
  throw std::logic_error("unknown engine counter");
}

/// Yes/no columns of an EventRow: kRing writes one flight-ring entry per
/// unit of n, kEventful exempts the query's trace from sampling, kAudit
/// audits the job's answer whatever the sampling, kDump may trigger the
/// recorder's rate-limited dump.
enum Trait : std::uint8_t { kRing = 1, kEventful = 2, kAudit = 4, kDump = 8 };
constexpr std::uint8_t kTrouble = kRing | kEventful;

/// What one note() of an event kind feeds.
struct EventRow {
  std::uint32_t counters = 0;  ///< bit i: kCounters[i] gets n added
  std::uint8_t traits = 0;     ///< Trait bits
  std::uint64_t obs::QueryCost::*tally = nullptr;  ///< ledger count += n
  bool obs::QueryCost::*flag = nullptr;            ///< ledger flag = true
  std::optional<obs::CostPhase> phase{};  ///< ledger phase += seconds
  const char* outcome = nullptr;  ///< the serve.submit span's `outcome`
};

/// The event table: one row per kind, and the only place an event's sinks
/// are decided. Healthy-path kinds leave the trace to sampling; every
/// fault, integrity and shard-trouble kind is eventful. Requeue is not: its
/// note runs after the job is back in the queue (so it must not touch the
/// job), a ladder requeue's trace is already kept by the faults before it,
/// and a breaker bounce is scheduling, not trouble.
constexpr std::array<EventRow, FlightRecorder::kEvents> kEventTable = [] {
  std::array<EventRow, FlightRecorder::kEvents> t{};
  const auto row = [&t](Event e) -> EventRow& {
    return t[static_cast<std::size_t>(e)];
  };
  using QC = obs::QueryCost;
  // Submit path: the outcome restates the event on serve.submit.
  row(Event::Submit) = {.counters = C("serve.submitted"), .traits = kRing};
  row(Event::CacheHit) = {
      .counters = C("serve.cache_hits") | C("serve.completed"),
      .traits = kRing, .flag = &QC::cache_hit, .outcome = "cache_hit"};
  row(Event::Coalesce) = {.counters = C("serve.coalesced"), .traits = kRing,
                          .flag = &QC::coalesced, .outcome = "coalesced"};
  row(Event::Enqueue) = {.traits = kRing, .outcome = "enqueued"};
  row(Event::Shed) = {.counters = C("serve.rejected"),
                      .traits = kRing | kDump, .outcome = "rejected"};
  row(Event::Expire) = {.counters = C("serve.expired"), .traits = kTrouble,
                        .outcome = "expired"};
  row(Event::RejectInvalid) = {.counters = C("serve.rejected_invalid")};
  // Worker path and the degradation ladder.
  row(Event::ExecuteBegin) = {.traits = kRing};
  row(Event::Complete) = {
      .counters = C("serve.executed") | C("serve.completed"), .traits = kRing};
  row(Event::Fail) = {.counters = C("serve.executed") | C("serve.failed"),
                      .traits = kTrouble, .flag = &QC::failed};
  row(Event::Abandon) = {.counters = C("serve.abandoned"), .traits = kTrouble};
  row(Event::Fault) = {.counters = C("serve.faults"), .traits = kTrouble};
  row(Event::Retry) = {.counters = C("serve.retries"), .traits = kTrouble,
                       .tally = &QC::retries};
  row(Event::BreakerOpen) = {.counters = C("serve.breaker_opens"),
                             .traits = kTrouble | kDump};
  row(Event::Failover) = {.counters = C("serve.failovers"),
                          .traits = kTrouble, .flag = &QC::failover};
  row(Event::Degraded) = {.counters = C("serve.degraded"),
                          .traits = kTrouble, .flag = &QC::degraded};
  row(Event::Requeue) = {.counters = C("serve.requeued"), .traits = kRing};
  row(Event::SloBreach) = {.counters = C("serve.slo.breached"),
                           .traits = kTrouble | kDump};
  // Sharded path.
  row(Event::ShardQuery) = {.counters = C("serve.shard.queries"),
                            .traits = kRing};
  row(Event::ShardTiles) = {.counters = C("serve.shard.tiles")};
  row(Event::ShardFailover) = {.counters = C("serve.shard.lanes_lost"),
                               .traits = kTrouble, .tally = &QC::lanes_lost};
  row(Event::ShardTilesFailedOver) = {
      .counters = C("serve.shard.tiles_failed_over"), .traits = kEventful,
      .tally = &QC::tiles_failed_over};
  row(Event::ShardHedge) = {.counters = C("serve.shard.tiles_hedged"),
                            .traits = kEventful};
  row(Event::HedgeWin) = {.counters = C("serve.shard.hedge_wins"),
                          .traits = kEventful};
  // Integrity: invariants, audits and the quarantines they cause.
  row(Event::IntegrityViolation) = {
      .counters = C("serve.integrity.invariant_violations"),
      .traits = kTrouble | kAudit};
  row(Event::Audit) = {.counters = C("serve.integrity.audits"),
                       .traits = kRing, .phase = obs::CostPhase::Audit};
  row(Event::AuditMismatch) = {
      .counters = C("serve.integrity.audit_mismatches"), .traits = kTrouble};
  row(Event::Quarantine) = {.counters = C("serve.integrity.quarantines"),
                            .traits = kTrouble};
  row(Event::CacheInvalidated) = {
      .counters = C("serve.integrity.cache_invalidated"), .traits = kEventful};
  return t;
}();

}  // namespace

QueryEngine::QueryEngine() : QueryEngine(Config{}) {}

QueryEngine::QueryEngine(Config cfg)
    : cfg_(cfg),
      tracer_(cfg.tracer != nullptr ? cfg.tracer : &obs::Tracer::global()),
      flight_(cfg.flight_capacity, cfg.flight),
      h_latency_(metrics_.histogram("serve.latency_seconds",
                                    obs::default_latency_bounds())),
      slots_(cfg.devices + cfg.cpu_workers),
      queue_(cfg.queue_capacity),
      cache_(cfg.cache_capacity),
      slo_(cfg.slo) {
  check(cfg_.devices >= 1 || cfg_.cpu_workers >= 1,
        "QueryEngine: need at least one device or CPU worker");
  check(cfg_.streams_per_device >= 1,
        "QueryEngine: need at least one stream per device");
  check(cfg_.trace_sample_of >= 1,
        "QueryEngine: trace_sample_of must be >= 1");
  check(cfg_.trace_sample_keep <= cfg_.trace_sample_of,
        "QueryEngine: trace_sample_keep must be <= trace_sample_of");
  check(cfg_.audit_rate >= 0.0 && cfg_.audit_rate <= 1.0,
        "QueryEngine: audit_rate must be in [0, 1]");
  check(cfg_.shard_hedge_after_seconds >= 0.0,
        "QueryEngine: shard_hedge_after_seconds must be >= 0");
  for (const CounterDef& c : kCounters)
    counters_.push_back(&metrics_.counter(c.name));
  // Every device gets one backend, which its stream workers and its shard
  // lane share under the slot's lock. Its launch hook counts into the
  // engine registry and traces each launch under the issuing thread's
  // context — a worker inside its serve.execute span, or a shard lane
  // thread under its ScopedTraceContext — so the launch joins the owning
  // query's trace.
  obs::Counter& launches = metrics_.counter("vgpu.launches");
  for (std::size_t d = 0; d < cfg_.devices; ++d) {
    Slot& slot = slots_[d];
    slot.dev = std::make_unique<vgpu::Device>(cfg_.spec);
    // Chaos: arm the device's fault injector when a plan was configured.
    if (d < cfg_.faults.size()) slot.dev->set_fault_plan(cfg_.faults[d]);
    obs::observe_launches(*slot.dev, *tracer_, launches);
    slot.be = std::make_unique<backend::VgpuBackend>(*slot.dev);
    shard_lanes_.push_back(
        {slot.be.get(), &slot.mu, "gpu" + std::to_string(d)});
  }
  for (std::size_t i = 0; i < cfg_.cpu_workers; ++i) {
    Slot& slot = slots_[cfg_.devices + i];
    backend::CpuBackend::Config bc;
    bc.threads = cfg_.cpu_threads;
    bc.pair_cost_seconds = cfg_.cpu_pair_cost_seconds;
    slot.be = std::make_unique<backend::CpuBackend>(bc);
    shard_lanes_.push_back(
        {slot.be.get(), &slot.mu, "cpu" + std::to_string(i)});
  }
  breakers_.reserve(worker_count());
  for (std::size_t w = 0; w < worker_count(); ++w)
    breakers_.push_back(std::make_unique<CircuitBreaker>(cfg_.breaker));
  g_worker_inflight_.reserve(worker_count());
  for (std::size_t w = 0; w < worker_count(); ++w)
    g_worker_inflight_.push_back(
        &metrics_.gauge("serve.worker." + std::to_string(w) + ".inflight"));
  if (!cfg_.telemetry.ops_feed_path.empty() ||
      !cfg_.telemetry.prometheus_path.empty())
    telemetry_ = std::make_unique<obs::TelemetryBus>(
        cfg_.telemetry, &metrics_, [this] { return metrics_json(); });
  if (cfg_.autostart) start();
}

QueryEngine::~QueryEngine() { shutdown(); }

void QueryEngine::shutdown() {
  queue_.close();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
  // Anything still queued had no worker to run it (never-started engine, or
  // jobs requeued into a closing queue): fail those futures rather than
  // leaving them broken-promise — and leave an audit trail, so shutdown can
  // never drop work silently.
  while (std::optional<std::shared_ptr<Job>> job = queue_.pop()) {
    note(Event::Abandon, **job);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase((*job)->key);
    }
    (*job)->promise.set_exception(std::make_exception_ptr(
        ServeError("QueryEngine: shut down with the query still queued")));
  }
  // Stop the ops exporter last: its final tick captures the fully drained
  // engine (abandons included), and no snapshot callback outlives this
  // method — the engine is still whole here, not mid-destruction.
  if (telemetry_) telemetry_->stop();
}

void QueryEngine::start() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  workers_.reserve(worker_count());
  for (std::size_t w = 0; w < worker_count(); ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
  if (telemetry_) telemetry_->start();
}

QueryEngine::ResultFuture QueryEngine::sdh(const PointsSoA& pts,
                                           double bucket_width, int buckets,
                                           const SubmitOptions& opts) {
  return submit(SdhQuery{bucket_width, buckets}, pts, opts);
}

QueryEngine::ResultFuture QueryEngine::pcf(const PointsSoA& pts, double radius,
                                           const SubmitOptions& opts) {
  return submit(PcfQuery{radius}, pts, opts);
}

QueryEngine::ResultFuture QueryEngine::knn(const PointsSoA& pts, int k,
                                           const SubmitOptions& opts) {
  return submit(KnnQuery{k}, pts, opts);
}

QueryEngine::ResultFuture QueryEngine::join(const PointsSoA& pts,
                                            double radius,
                                            kernels::JoinVariant variant,
                                            const SubmitOptions& opts) {
  return submit(JoinQuery{radius, variant}, pts, opts);
}

QueryEngine::ResultFuture QueryEngine::submit(Query query, const PointsSoA& pts,
                                              const SubmitOptions& opts) {
  std::optional<ResultFuture> fut =
      submit_impl(std::move(query), pts, /*block=*/true, opts);
  check(fut.has_value(), "QueryEngine::submit: blocking submit returned empty");
  return *std::move(fut);
}

std::optional<QueryEngine::ResultFuture> QueryEngine::try_submit(
    Query query, const PointsSoA& pts, const SubmitOptions& opts) {
  return submit_impl(std::move(query), pts, /*block=*/false, opts);
}

QueryEngine::Clock::time_point QueryEngine::deadline_from(
    const SubmitOptions& opts, Clock::time_point now) const {
  double seconds = opts.deadline_seconds;
  if (seconds == 0.0) seconds = cfg_.default_deadline_seconds;
  if (seconds <= 0.0) return Clock::time_point::max();
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

void QueryEngine::validate_input(const Query& query, const PointsSoA& pts) {
  const auto reject = [this](const std::string& why) {
    note(Event::RejectInvalid, {});
    throw InvalidQueryError("QueryEngine: invalid query rejected — " + why);
  };
  if (const auto* sq = std::get_if<SdhQuery>(&query)) {
    if (!std::isfinite(sq->bucket_width) || sq->bucket_width <= 0.0)
      reject("SDH bucket width must be positive and finite");
    if (sq->buckets < 1) reject("SDH bucket count must be >= 1");
  } else if (const auto* pq = std::get_if<PcfQuery>(&query)) {
    if (!std::isfinite(pq->radius) || pq->radius <= 0.0)
      reject("PCF radius must be positive and finite");
  } else if (const auto* kq = std::get_if<KnnQuery>(&query)) {
    if (kq->k < 1) reject("kNN k must be >= 1");
  } else if (const auto* jq = std::get_if<JoinQuery>(&query)) {
    if (!std::isfinite(jq->radius) || jq->radius <= 0.0)
      reject("join radius must be positive and finite");
  }
  for (const std::span<const float> axis : {pts.x(), pts.y(), pts.z()})
    for (const float c : axis)
      if (!std::isfinite(c))
        reject("dataset contains a non-finite coordinate");
}

std::optional<QueryEngine::ResultFuture> QueryEngine::submit_impl(
    Query query, const PointsSoA& pts, bool block, const SubmitOptions& opts) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = deadline_from(opts, t0);
  // Input validation runs *before* fingerprinting: a NaN dataset must never
  // acquire a cache identity — it would execute, produce a garbage
  // histogram, and serve it to every future identical submission.
  validate_input(query, pts);
  const std::uint64_t fp = dataset_fingerprint(pts);
  const std::string key = query_key(query, fp);
  // Every submission gets a trace identity, tracing on or off — exemplars
  // and flight-recorder events name queries by trace id either way. The
  // submit span is the trace root ({trace_id, 0}); everything downstream
  // parents on it.
  const obs::TraceContext root{obs::Tracer::mint_trace_id(), 0};
  obs::Span span(*tracer_, "serve.submit", "serve", root);
  span.attr("key", key);
  // This submission's ledger entry: a cache hit records it, a coalesced
  // client's sink gets it as the marker, and a new job starts from it.
  obs::QueryCost qc;
  qc.trace_id = root.trace_id;
  qc.kind = kind_name(query);
  qc.dataset_fp = fp;
  const Who who(key, root.trace_id, span, qc);
  note(Event::Submit, who);

  // The job a miss enqueues: built once, outside mu_, the first time the
  // fast paths miss; the loop then re-checks them under the lock.
  std::shared_ptr<Job> job;
  std::optional<ResultFuture> job_fut;
  while (true) {
    std::optional<QueryResult> hit;
    std::optional<ResultFuture> joined;
    bool admitted = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      // Fast path 1: already computed. Fast path 2: an identical query in
      // flight. Otherwise admission control: the bounded queue is the only
      // place work can pile up.
      hit = cache_.find(key);
      if (!hit) {
        if (const auto it = inflight_.find(key); it != inflight_.end()) {
          joined = it->second;
        } else if (job != nullptr) {
          job->seq = submit_seq_.fetch_add(1, std::memory_order_relaxed);
          admitted = queue_.try_push(job);
          if (admitted) {
            inflight_.emplace(key, *job_fut);
            // Under mu_, so the ring shows it before the worker's pop.
            note(Event::Enqueue, who);
          }
        }
      }
    }
    if (hit) {
      // Served from the result cache with zero launches; its completion
      // bookkeeping runs outside mu_.
      std::promise<QueryResult> ready;
      ready.set_value(*std::move(hit));
      complete(Event::CacheHit, who, 0, wall_since(t0), opts.cost);
      return ready.get_future().share();
    }
    if (joined) {
      // The work is attributed once, to the winning submission; this
      // client's sink gets only the coalesced marker (not recorded in the
      // ledger — that would double-count the query).
      note(Event::Coalesce, who);
      if (opts.cost) *opts.cost = qc;
      return joined;
    }
    if (admitted) return job_fut;
    if (job != nullptr && !block) {
      note(Event::Shed, who);
      return std::nullopt;
    }
    if (job == nullptr) {
      // Both fast paths missed: copy the points and take the canonical
      // checksum the audit layer re-verifies, without holding mu_. Cache
      // hits and coalesced submissions never pay for either.
      job = std::make_shared<Job>();
      job->key = key;
      job->query = query;
      job->problem = problem_of(query);
      job->input_checksum = points_checksum(pts);
      job->pts = std::make_shared<const PointsSoA>(pts);
      job->submitted = t0;
      job->deadline = deadline;
      job->shards = opts.shards;
      job->shard_strategy = opts.shard_strategy;
      // Workers parent their spans on the submit span when it was recorded
      // (tracing on), and on the trace root otherwise — either way the
      // job's trace_id travels with it across the queue.
      job->ctx = span.active() ? span.context() : root;
      job->cost_sink = opts.cost;
      job->cost = qc;
      job_fut = job->promise.get_future().share();
      continue;
    }
    // Queue full in blocking mode: wait for a worker to free a slot, then
    // re-run the fast paths (the query may complete or coalesce meanwhile).
    // With a deadline, give up when it passes while we wait — the query
    // never entered the system, so this is an expiry, not a shed.
    if (deadline == Clock::time_point::max()) {
      if (!queue_.wait_not_full())
        throw ServeError("QueryEngine: submit after shutdown");
    } else {
      const bool slot_free = queue_.wait_not_full_until(deadline);
      if (!slot_free && queue_.closed())
        throw ServeError("QueryEngine: submit after shutdown");
      if (!slot_free && Clock::now() >= deadline) {
        note(Event::Expire, who);
        std::promise<QueryResult> expired;
        expired.set_exception(std::make_exception_ptr(DeadlineExceeded(
            "QueryEngine: deadline expired waiting for a queue slot")));
        return expired.get_future().share();
      }
    }
  }
}

void QueryEngine::worker_loop(std::size_t worker_index) {
  // Bind this worker's slot: its device's shared backend for a vgpu
  // worker, its own CpuBackend for a CPU worker.
  Slot& slot = slots_[worker_index < gpu_worker_count()
                          ? worker_index / cfg_.streams_per_device
                          : cfg_.devices + worker_index - gpu_worker_count()];
  WorkerCtx ctx{worker_index, *slot.be, slot.mu, *breakers_[worker_index]};
  // Jitter RNG, salted per worker so backoffs decorrelate across the pool.
  Rng rng(cfg_.retry.seed ^
          (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(worker_index + 1)));

  obs::Gauge& inflight_gauge = *g_worker_inflight_[worker_index];
  while (std::optional<std::shared_ptr<Job>> popped = queue_.pop()) {
    inflight_gauge.set(1.0);
    try {
      process_job(ctx, rng, *popped);
    } catch (...) {
      // Satellite guarantee: nothing a kernel body (or our own bookkeeping)
      // throws may kill the worker — fail only this job's future. If the
      // promise was already satisfied, swallow; the result was delivered.
      try {
        (*popped)->promise.set_exception(std::current_exception());
      } catch (const std::future_error&) {
      }
    }
    inflight_gauge.set(0.0);
  }
}

void QueryEngine::note(Event kind, const Who& who, std::size_t worker,
                       std::uint64_t n, double seconds) {
  if (n == 0) return;
  const EventRow& row = kEventTable[static_cast<std::size_t>(kind)];
  for (std::uint32_t bits = row.counters; bits != 0; bits &= bits - 1)
    counters_[static_cast<std::size_t>(std::countr_zero(bits))]->inc(n);
  if ((row.traits & kRing) != 0)
    for (std::uint64_t i = 0; i < n; ++i)
      flight_.record(kind, who.key, static_cast<std::uint32_t>(worker),
                     seconds, who.trace_id);
  if (who.job != nullptr) {
    if ((row.traits & kEventful) != 0) who.job->eventful = true;
    if ((row.traits & kAudit) != 0) who.job->integrity_flagged = true;
  }
  if (obs::QueryCost* qc = who.cost) {
    if (row.tally != nullptr) qc->*row.tally += n;
    if (row.flag != nullptr) qc->*row.flag = true;
    if (row.phase) qc->phase(*row.phase).seconds += seconds;
  }
  if (who.span != nullptr && row.outcome != nullptr)
    who.span->attr("outcome", row.outcome);
  if ((row.traits & kDump) != 0)
    flight_.maybe_dump(kind, cfg_.slo.latency_seconds, who.trace_id,
                       [this] { return latency_.summary().p99; });
}

void QueryEngine::complete(Event kind, const Who& who, std::size_t worker,
                           double seconds,
                           const std::shared_ptr<obs::QueryCost>& sink) {
  latency_.record(seconds);
  h_latency_.observe(seconds, who.trace_id);
  note(kind, who, worker, 1, seconds);
  // The burn-rate monitor judges every completion (cache hits included:
  // under heavy dedup they are most of the traffic) against the rolling
  // window; a breach transition dumps the recorder naming this query's
  // trace and pins that trace past sampling.
  if (slo_.record(seconds, kind == Event::Fail))
    note(Event::SloBreach, who, worker);
  // Close the query's cost ledger and publish it — before the caller
  // fulfils the promise, so a client waking from .get() sees its sink
  // filled.
  who.cost->total_seconds = seconds;
  cost_ledger_.record(*who.cost);
  if (sink) *sink = *who.cost;
}

bool QueryEngine::note_device_error(WorkerCtx& ctx, Job& job,
                                    const vgpu::DeviceError& e,
                                    Clock::time_point t0) {
  job.cost.waste_seconds += wall_since(t0);
  ++job.cost.waste_events;
  // An invariant breach is a device fault with extra meaning: the lane
  // returned a *wrong answer*, not a loud error.
  const bool integrity = dynamic_cast<const IntegrityError*>(&e) != nullptr;
  if (integrity) note(Event::IntegrityViolation, job, ctx.index);
  note(Event::Fault, job, ctx.index);
  if (ctx.breaker.record_failure()) note(Event::BreakerOpen, job, ctx.index);
  return integrity;
}

void QueryEngine::process_job(WorkerCtx& ctx, Rng& rng,
                              const std::shared_ptr<Job>& job) {
  const std::size_t worker_index = ctx.index;
  const Clock::time_point t0 = Clock::now();

  // The queue wait [submitted, popped] can overlap this worker's previous
  // execute span, so it goes on a synthetic track, not the worker's row.
  // It parents on the job's context, so the trace shows submit → wait →
  // execute even though the three live on different timeline rows.
  tracer_->record_span("serve.queue_wait", "serve", job->submitted, t0,
                       job->ctx, {{"key", job->key}},
                       tracer_->track_tid("queue"));

  // Queue phase: the wait until the *first* worker picked the job up. On a
  // re-dispatch the gap since `submitted` includes the earlier failed
  // ladder, which the ledger already itemizes as waste — don't recount it.
  if (job->cost.phase(obs::CostPhase::Queue).seconds == 0.0)
    job->cost.phase(obs::CostPhase::Queue).seconds =
        std::chrono::duration<double>(t0 - job->submitted).count();

  // Cancel before any work: an expired query is never executed.
  if (t0 >= job->deadline) {
    note(Event::Expire, *job, worker_index);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(job->key);
    }
    job->promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
        "QueryEngine: deadline expired before execution (query " + job->key +
        ")")));
    return;
  }

  // Anti-affinity: a rung-3 requeue means this job already failed its full
  // ladder *here* — the hand-off is only worth anything on a different
  // worker. Bounce it back (pure scheduling: no dispatch consumed, no
  // audit event) whenever peers exist to take it; with max-dispatch
  // accounting left intact this cannot loop forever, and it stops a sick
  // worker's half-open probes from burning the job's whole dispatch budget
  // before a healthy worker ever sees it.
  if (job->last_worker == worker_index && worker_count() > 1 &&
      queue_.try_push(job)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return;
  }

  // Breaker gate: while open, this worker's device is presumed sick — hand
  // the job to a healthier worker instead of black-holing it. A bounce is
  // not a ladder hand-off, so it doesn't consume a dispatch; the short
  // sleep stops a lone open worker spinning on its own requeue.
  if (!ctx.breaker.allow()) {
    if (queue_.try_push(job)) {
      note(Event::Requeue, *job, worker_index);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return;
    }
    // Queue full or closing: run it here anyway as a forced probe — worse
    // for the breaker's cooldown, far better than dropping the query.
  }

  QueryResult result;
  std::exception_ptr error;
  bool degraded = false;
  Outcome outcome;
  {
    // Explicit parent: the thread-local stack knows nothing across the
    // queue hop, so the execute span adopts the job's context. Its ctor
    // installs the context on this thread, so everything beneath — ladder
    // spans, planner spans, launch-observer spans — inherits implicitly.
    obs::Span span(*tracer_, "serve.execute", "serve", job->ctx);
    span.attr("key", job->key);
    span.attr("backend", ctx.be.caps().name);
    note(Event::ExecuteBegin, *job, worker_index);
    int attempts = 0;
    outcome = run_ladder(ctx, rng, job, result, error, degraded, attempts);
    span.attr("attempts", std::to_string(attempts));
    if (degraded) span.attr("degraded", "true");
    span.attr("outcome", outcome == Outcome::Success ? "ok"
              : outcome == Outcome::Requeue          ? "requeue"
                                                     : "error");
    // What this answer cost to produce, pickup to the ladder's result (no
    // queue wait, no audit): the cache's eviction cost for it.
    const Clock::duration produced = Clock::now() - t0;
    busy_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(produced).count(),
        std::memory_order_relaxed);
    if (outcome == Outcome::Requeue) return;

    // Sampled cross-backend audit — after the ladder, before the cache
    // store, so a silently corrupt answer can neither be delivered nor
    // poison the cache. A mismatch replaces `result` with the audited
    // answer and marks it degraded (correct, but from the fallback lane —
    // not cacheable, so a later healthy execution replaces it).
    if (!error && !degraded && maybe_audit(ctx, job, result))
      degraded = true;

    // Order matters twice over. Publish to the cache before retiring the
    // in-flight entry, so a racing submit always finds the result one way
    // or the other. And fulfill the promise *last*: a client waking from
    // .get() must observe the counters already bumped, (cache disabled)
    // the in-flight entry already gone — so an immediate identical
    // resubmit re-executes instead of coalescing onto this finished job —
    // and the serve.execute span already recorded, so a trace snapshotted
    // right after .get() covers the query end to end.
    //
    // Degraded answers are deliberately *not* cached: they are correct but
    // second-choice, and caching one would pin it past the fault's
    // recovery. A later identical query re-executes on a healthy ladder.
    if (!error && !degraded) {
      const Clock::time_point cf0 = Clock::now();
      // Provenance-tagged (an audit mismatch later purges every entry the
      // offending backend produced) and priced by what it cost to produce.
      cache_.store(job->key, result, job->cost.backend,
                   std::chrono::duration<double>(produced).count());
      job->cost.phase(obs::CostPhase::CacheFill).seconds += wall_since(cf0);
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(job->key);
    }
    if (degraded) note(Event::Degraded, *job, worker_index);
    complete(error ? Event::Fail : Event::Complete, *job, worker_index,
             wall_since(job->submitted), job->cost_sink);
  }  // serve.execute recorded here, before any client can wake
  // Retroactive sampling: the query is finished and its spans are all
  // recorded, so this is the one moment the keep/drop decision can see
  // whether anything noteworthy happened. Healthy queries outside the
  // keep-N-in-M window are dropped wholesale; eventful ones always stay.
  if (!job->eventful && cfg_.trace_sample_of > 1 &&
      (job->seq % cfg_.trace_sample_of) >= cfg_.trace_sample_keep) {
    tracer_->drop_trace(job->ctx.trace_id);
    // Planner spans land in the global tracer even when the engine uses
    // its own; sweep the trace out of both.
    if (tracer_ != &obs::Tracer::global())
      obs::Tracer::global().drop_trace(job->ctx.trace_id);
  }
  if (!error)
    job->promise.set_value(std::move(result));
  else
    job->promise.set_exception(error);
}

QueryEngine::Outcome QueryEngine::run_ladder(
    WorkerCtx& ctx, Rng& rng, const std::shared_ptr<Job>& job,
    QueryResult& result, std::exception_ptr& error, bool& degraded,
    int& attempts) {
  const std::size_t worker_index = ctx.index;
  CircuitBreaker& breaker = ctx.breaker;
  const int max_attempts = std::max(1, cfg_.retry.max_attempts);
  std::string device_msg;  // last device error, for the RetriesExhausted wrap
  // Waste accounting: every rung charges the wall time of an attempt that
  // produced no result (plus backoff sleeps) to the job's ledger, so the
  // final entry itemizes fault-tolerance overhead separately from the
  // productive phases execute()/run_sharded() fill.
  obs::QueryCost& qc = job->cost;
  // The last rung-1 answer an invariant rejected, kept for the audit
  // escape below.
  std::optional<QueryResult> rejected;

  // Rung 0: sharded fan-out. The query runs as K shards x tiles over the
  // whole backend pool, merged with the reduction tree. It runs holding
  // no lock: the shard executor takes each lane's launch mutex per tile,
  // including ctx.mu. The executor survives
  // individual lane deaths internally (tiles fail over to survivors), so
  // falling through to the unsharded ladder only happens when the whole
  // pool failed; the breaker records nothing either way because no outcome
  // here is evidence about *this* worker's device alone.
  if (wants_sharding(*job)) {
    ++attempts;
    if (run_sharded(ctx, job, result, error, qc)) return Outcome::Success;
  }

  // Rung 1: the planned execution, retried on transient device faults.
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (Clock::now() >= job->deadline) {
      note(Event::Expire, *job, worker_index);
      error = std::make_exception_ptr(DeadlineExceeded(
          "QueryEngine: deadline expired mid-retry (query " + job->key + ")"));
      return Outcome::Fail;
    }
    ++attempts;
    const Clock::time_point a0 = Clock::now();
    try {
      result = execute(ctx.be, ctx.mu, *job, qc, /*degraded=*/false);
      // Algebraic invariants (Eq. 1) gate every answer before it counts as
      // a success; a breach throws IntegrityError into this rung's catch
      // as a non-transient fault, pushing the ladder to an independent
      // backend.
      verify_result(job->query, *job->pts, result,
                    "QueryEngine rung 1");
      breaker.record_success();
      error = nullptr;  // a successful retry supersedes earlier attempts
      return Outcome::Success;
    } catch (const vgpu::DeviceError& e) {
      // Only verify_result throws IntegrityError here, after execute()
      // filled `result`.
      if (note_device_error(ctx, *job, e, a0)) rejected = result;
      error = std::current_exception();
      device_msg = e.what();
      if (!e.transient()) break;  // a dead device won't heal under retry
      if (attempt == max_attempts) break;
      // Backoff outside the device lock, capped so it can't sleep through
      // the deadline.
      double wait = backoff_seconds(cfg_.retry, attempt + 1, rng);
      if (job->deadline != Clock::time_point::max()) {
        const double remaining = std::chrono::duration<double>(
                                     job->deadline - Clock::now())
                                     .count();
        wait = std::min(wait, std::max(0.0, remaining));
      }
      note(Event::Retry, *job, worker_index);
      obs::Span backoff_span(*tracer_, "serve.retry_backoff", "serve");
      backoff_span.attr("key", job->key);
      backoff_span.attr("attempt", std::to_string(attempt + 1));
      const Clock::time_point b0 = Clock::now();
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      qc.waste_seconds += wall_since(b0);  // the backoff stall is waste too
    } catch (...) {
      // Deterministic application error (bad arguments): no retry, no
      // breaker impact — re-running a wrong query cannot make it right.
      error = std::current_exception();
      return Outcome::Fail;
    }
  }

  // Rung 2: cross-backend failover — this worker's device looks sick, so
  // run the query on the engine's shared CPU backend instead. The answer is
  // a full planned execution on a healthy substrate, so it is *not* tagged
  // degraded and is cacheable. The breaker deliberately records nothing:
  // the success happened elsewhere, and the device is still suspect.
  if (cfg_.backend_failover && ctx.be.caps().kind == backend::Kind::Vgpu) {
    // Runs inside the serve.execute span's scope, so the implicit context
    // stack parents this on the execute span — the failover hop shows up
    // in the query's trace without explicit plumbing.
    obs::Span failover_span(*tracer_, "serve.failover", "serve");
    failover_span.attr("key", job->key);
    failover_span.attr("from", ctx.be.caps().name);
    const Clock::time_point f0 = Clock::now();
    try {
      result = execute(failover_backend(), failover_mu_, *job, qc,
                       /*degraded=*/false);
      verify_result(job->query, *job->pts, result,
                    "QueryEngine failover rung");
      failover_span.attr("to", failover_backend().caps().name);
      failover_span.attr("outcome", "ok");
      note(Event::Failover, *job, worker_index);
      error = nullptr;
      return Outcome::Success;
    } catch (...) {
      // CPU launches only throw on precondition violations; keep the error
      // and fall through to the degraded rung rather than giving up here.
      failover_span.attr("outcome", "error");
      qc.waste_seconds += wall_since(f0);
      ++qc.waste_events;
      error = std::current_exception();
    }
  }

  // Rung 3: the degraded baseline — a fixed, planner-free registry variant.
  // Only meaningful for queries whose normal path is planned (SDH/PCF).
  if (cfg_.degrade && has_degraded_rung(*job)) {
    const Clock::time_point d0 = Clock::now();
    try {
      result = execute(ctx.be, ctx.mu, *job, qc, /*degraded=*/true);
      verify_result(job->query, *job->pts, result,
                    "QueryEngine degraded rung");
      breaker.record_success();
      degraded = true;
      error = nullptr;
      return Outcome::Success;
    } catch (const vgpu::DeviceError& e) {
      note_device_error(ctx, *job, e, d0);
      error = std::current_exception();
      device_msg = e.what();
    } catch (...) {
      error = std::current_exception();
      return Outcome::Fail;
    }
  }

  // Rung 3b: kNN and join have no degraded rung. When an invariant
  // rejected their answer and no failover rung ran, the audit is the
  // independent escape: it re-runs the query on the CPU reference backend,
  // quarantines this worker, and delivers the reference answer (degraded,
  // never cached). The rejected answer itself is never delivered: without
  // a replacement the ladder goes on to requeue or fail.
  if (rejected && !has_degraded_rung(*job)) {
    result = *std::move(rejected);
    if (maybe_audit(ctx, job, result)) {
      degraded = true;
      error = nullptr;
      return Outcome::Success;
    }
  }

  // Rung 4: hand the job back for another worker (bounded, deadline-aware).
  if (job->dispatches + 1 < std::max(1, cfg_.retry.max_dispatches) &&
      Clock::now() < job->deadline) {
    ++job->dispatches;
    job->last_worker = worker_index;
    if (queue_.try_push(job)) {
      note(Event::Requeue, *job, worker_index);
      return Outcome::Requeue;
    }
  }

  // Ladder exhausted: deliver a typed serving error carrying the final
  // device error's message.
  error = std::make_exception_ptr(RetriesExhausted(
      "QueryEngine: degradation ladder exhausted for query " + job->key +
      " (dispatches=" + std::to_string(job->dispatches + 1) +
      ", last device error: " + device_msg + ")"));
  return Outcome::Fail;
}

bool QueryEngine::has_degraded_rung(const Job& job) {
  return !kernels::KernelRegistry::instance()
              .plannable(job.problem.desc.type, kernels::kBackendAny)
              .empty();
}

bool QueryEngine::wants_sharding(const Job& job) {
  const kernels::ProblemType t = job.problem.desc.type;
  return job.shards >= 2 &&
         (t == kernels::ProblemType::Sdh || t == kernels::ProblemType::Pcf);
}

bool QueryEngine::run_sharded(WorkerCtx& ctx,
                              const std::shared_ptr<Job>& job,
                              QueryResult& result, std::exception_ptr& error,
                              obs::QueryCost& qc) {
  note(Event::ShardQuery, *job, ctx.index);

  // Sharded jobs skip the planner: the shard count is not a plan
  // dimension, so tiles use the fixed dual-backend default variant.
  shard::Options sopt;
  sopt.shards = job->shards;
  sopt.strategy = job->shard_strategy;
  sopt.hedge_after_seconds = cfg_.shard_hedge_after_seconds;
  // We are inside the job's serve.execute span, so the thread context *is*
  // the query's; hand it to the executor so lane threads (and the launch
  // observers that fire on them) join the same trace.
  sopt.trace = obs::current_trace_context();

  shard::Executor ex(&shard_router_);
  const Clock::time_point s0 = Clock::now();
  try {
    shard::Report rep = ex.run(
        shard_lanes_, *job->pts, job->problem.desc, sopt,
        [&](std::size_t lane, std::size_t tiles) {
          note(Event::ShardFailover, *job, lane);
          note(Event::ShardTilesFailedOver, *job, lane, tiles);
          // Instantaneous marker span: the hook fires at reroute time, on
          // this worker thread, under the execute span's context.
          const auto now = obs::Tracer::Clock::now();
          tracer_->record_span("serve.shard.failover", "shard", now, now,
                               obs::current_trace_context(),
                               {{"key", job->key},
                                {"lane", std::to_string(lane)},
                                {"tiles", std::to_string(tiles)}},
                               tracer_->track_tid("shard"));
        });
    note(Event::ShardTiles, *job, ctx.index, rep.tiles_total);
    note(Event::ShardHedge, *job, ctx.index, rep.tiles_hedged);
    note(Event::HedgeWin, *job, ctx.index, rep.hedge_wins);
    // Tile invariant breaches the executor already recovered from (the
    // corrupt lane died, its tiles re-ran elsewhere): the note flags the
    // job, so the merged answer is audited unconditionally.
    note(Event::IntegrityViolation, *job, ctx.index, rep.integrity_violations);
    // Cost attribution. The launch phase for a sharded query is the sum of
    // tile resource-seconds (tiles run in parallel; resource-seconds, not
    // wall, is what the per-tile rows must balance against), so Σ tiles ==
    // phases[launch] by construction and the acceptance check verifies the
    // row-by-row accounting reproduces it within 1%.
    qc.sharded = true;
    qc.backend = "sharded";
    qc.variant = rep.variant_name;
    qc.phase(obs::CostPhase::Stage).seconds += rep.stage_seconds;
    qc.phase(obs::CostPhase::Stage).bytes +=
        static_cast<double>(rep.staged_bytes);
    qc.phase(obs::CostPhase::Merge).seconds += rep.merge_seconds;
    qc.waste_seconds += rep.waste_seconds;
    qc.waste_events += rep.waste_events;
    qc.measured_seconds = rep.kernel_seconds;  // the parallel makespan
    qc.tiles.reserve(qc.tiles.size() + rep.spans.size());
    for (const shard::TileSpan& ts : rep.spans) {
      obs::TileCost tc;
      tc.a = static_cast<int>(ts.tile.a);
      tc.b = static_cast<int>(ts.tile.b);
      tc.lane = ts.lane;
      tc.backend = ts.lane_name;
      tc.seconds = ts.seconds;
      tc.stage_seconds = ts.stage_seconds;
      tc.staged_bytes = static_cast<double>(ts.staged_bytes);
      tc.device_cycles = ts.device_cycles;
      tc.failover = ts.failover;
      qc.phase(obs::CostPhase::Launch).seconds += ts.seconds;
      qc.phase(obs::CostPhase::Launch).device_cycles += ts.device_cycles;
      qc.tiles.push_back(std::move(tc));
    }
    if (tracer_->enabled()) {
      // Tile timings are modeled (vgpu) or remote wall time, so they go on
      // a synthetic track anchored at "now" rather than the worker's row.
      const auto now = obs::Tracer::Clock::now();
      const std::uint32_t tid = tracer_->track_tid("shard");
      const obs::TraceContext tctx = obs::current_trace_context();
      const auto dur = [](double seconds) {
        return std::chrono::duration_cast<obs::Tracer::Clock::duration>(
            std::chrono::duration<double>(seconds));
      };
      for (const shard::TileSpan& ts : rep.spans) {
        const std::string a = std::to_string(ts.tile.a);
        const std::string b = std::to_string(ts.tile.b);
        const std::string lane = std::to_string(ts.lane);
        tracer_->record_span("serve.shard.tile", "shard",
                             now - dur(ts.seconds), now, tctx,
                             {{"a", a},
                              {"b", b},
                              {"lane", lane},
                              {"failover", ts.failover ? "true" : "false"}},
                             tid);
      }
      const std::string tiles = std::to_string(rep.tiles_total);
      tracer_->record_span("serve.shard.merge", "shard",
                           now - dur(rep.merge_seconds), now, tctx,
                           {{"tiles", tiles}}, tid);
    }
    const kernels::KernelOutput out = output_sinks(job->query, result);
    if (out.hist != nullptr) *out.hist = std::move(rep.hist);
    if (out.pairs != nullptr) *out.pairs = rep.pairs;
    std::visit([&](auto& r) { r.stats = rep.stats; }, result);
    error = nullptr;
    return true;
  } catch (const vgpu::DeviceError& e) {
    // Every lane died (or staging itself faulted persistently). Count the
    // fault against this worker's breaker like any other device error and
    // let the caller fall through to the unsharded ladder; everything the
    // dead fan-out burned is waste.
    note_device_error(ctx, *job, e, s0);
    error = std::current_exception();
    return false;
  } catch (...) {
    error = std::current_exception();
    return false;
  }
}

QueryResult QueryEngine::execute(backend::IBackend& be,
                                 std::mutex& launch_mu, const Job& job,
                                 obs::QueryCost& qc, bool degraded) {
  const PointsSoA& pts = *job.pts;
  // Cost/feedback capture. Phase seconds are staged in locals and committed
  // to `qc` only after a successful launch (commit-on-success): when an
  // attempt throws, the ladder charges its whole wall time to waste, and
  // partially-filled phases would double-count it. The planner prices this
  // worker's backend's own catalogue (so a CPU worker can win with Tree-SDH
  // while a vgpu worker picks a shared-memory variant), with estimates
  // bias-corrected by the engine's EstimateCorrector; the degraded fallback
  // never plans.
  const Clock::time_point p0 = Clock::now();
  const core::Choice choice = core::choose(
      be, pts, job.problem.desc, job.problem.variant, kDefaultBlock,
      degraded ? std::numeric_limits<std::size_t>::max() : cfg_.plan_threshold,
      &plan_cache_, &corrector_);
  const double plan_seconds = choice.plan ? wall_since(p0) : 0.0;

  QueryResult result;
  kernels::KernelOutput out = output_sinks(job.query, result);
  vgpu::KernelStats stats;
  double launch_wall = 0.0;
  {
    const std::lock_guard<std::mutex> lock(launch_mu);
    const Clock::time_point l0 = Clock::now();
    stats = be.launch(*choice.kernel, pts, job.problem.desc,
                      choice.block_size, out);
    launch_wall = wall_since(l0);
  }
  std::visit(
      [&](auto& r) {
        r.stats = stats;
        r.degraded = degraded;
      },
      result);

  // Successful-launch epilogue: feed the corrector with the measured
  // seconds on the estimate's own clock (modeled device seconds for vgpu,
  // wall for cpu — what IBackend::estimate() predicts) and commit this
  // attempt's plan/launch phases plus the feedback triple to the ledger.
  double measured = launch_wall;
  if (be.caps().kind == backend::Kind::Vgpu && stats.block_dim > 0)
    measured = perfmodel::model_time(cfg_.spec, stats).seconds;
  if (const std::optional<core::Plan>& p = choice.plan) {
    if (p->raw_predicted_seconds > 0.0 && measured > 0.0)
      corrector_.observe(p->backend_name, p->variant_key,
                         static_cast<double>(pts.size()),
                         p->raw_predicted_seconds, measured);
    qc.variant = p->variant_key;
    qc.estimate_seconds = p->predicted_seconds;
    qc.raw_estimate_seconds = p->raw_predicted_seconds;
  }
  qc.backend = be.caps().name;
  qc.phase(obs::CostPhase::Plan).seconds += plan_seconds;
  qc.phase(obs::CostPhase::Launch).seconds += launch_wall;
  qc.phase(obs::CostPhase::Launch).device_cycles +=
      static_cast<double>(stats.total_warp_cycles);
  qc.measured_seconds = measured;
  return result;
}

bool QueryEngine::maybe_audit(WorkerCtx& ctx,
                              const std::shared_ptr<Job>& job,
                              QueryResult& result) {
  if (!integrity_enabled()) return false;
  bool sampled = job->integrity_flagged;
  if (!sampled && cfg_.audit_rate > 0.0) {
    // Deterministic per-submission sampling: the same workload audits the
    // same queries on every run.
    Rng coin(kAuditSeed ^
             (0x9e3779b97f4a7c15ULL * (job->seq + 1)));
    sampled = coin.uniform() < cfg_.audit_rate;
  }
  if (!sampled) return false;

  const Clock::time_point a0 = Clock::now();
  obs::Span span(*tracer_, "serve.audit", "serve");
  span.attr("key", job->key);
  // Staged-buffer verification: the canonical checksum taken at submit must
  // still describe the bytes we are about to re-run.
  const bool input_ok = points_checksum(*job->pts) == job->input_checksum;
  std::optional<QueryResult> reference;
  try {
    obs::QueryCost scratch;  // the reference run is the audit phase's cost
    reference = execute(failover_backend(), failover_mu_, *job, scratch,
                        /*degraded=*/true);
  } catch (...) {
    // The reference lane itself failed; there is nothing to compare
    // against, so the primary answer stands.
  }
  const bool agree =
      reference && input_ok && results_bit_identical(result, *reference);
  note(Event::Audit, *job, ctx.index, 1, wall_since(a0));
  if (!reference || agree) {
    span.attr("outcome", reference ? "ok" : "reference_failed");
    return false;
  }

  // Mismatch: the producing backend returned a silently wrong answer (or
  // the submitted buffer was tampered with in flight). Quarantine the
  // worker, purge everything its backend put in the cache, and deliver the
  // independently computed answer instead.
  span.attr("outcome", input_ok ? "mismatch" : "input_corrupt");
  note(Event::AuditMismatch, *job, ctx.index);
  if (ctx.breaker.trip()) note(Event::BreakerOpen, *job, ctx.index);
  note(Event::Quarantine, *job, ctx.index);
  note(Event::CacheInvalidated, *job, ctx.index,
       cache_.invalidate_by_provenance(job->cost.backend));
  result = *std::move(reference);
  return true;
}

backend::CpuBackend& QueryEngine::failover_backend() {
  const std::lock_guard<std::mutex> lock(failover_mu_);
  if (!failover_cpu_) {
    backend::CpuBackend::Config bc;
    bc.threads = cfg_.cpu_threads;
    bc.pair_cost_seconds = cfg_.cpu_pair_cost_seconds;
    failover_cpu_ = std::make_unique<backend::CpuBackend>(bc);
  }
  return *failover_cpu_;
}

EngineStats QueryEngine::stats() const {
  EngineStats out;
  for (std::size_t i = 0; i < std::size(kCounters); ++i)
    if (kCounters[i].field != nullptr)
      out.counters.*kCounters[i].field = counters_[i]->value();
  out.latency = latency_.summary();
  out.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  out.workers = worker_count();
  out.queue_depth = queue_.size();
  out.kernel_launches = launch_count();
  if (out.elapsed_seconds > 0.0) {
    out.throughput_qps =
        static_cast<double>(out.counters.completed) / out.elapsed_seconds;
    out.occupancy =
        (static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
         1e-9) /
        (out.elapsed_seconds * static_cast<double>(out.workers));
  }
  refresh_gauges(out);
  return out;
}

void QueryEngine::refresh_gauges(const EngineStats& s) const {
  metrics_.gauge("serve.queue_depth").set(static_cast<double>(s.queue_depth));
  metrics_.gauge("serve.occupancy").set(s.occupancy);
  metrics_.gauge("serve.throughput_qps").set(s.throughput_qps);
  metrics_.gauge("serve.workers").set(static_cast<double>(s.workers));
  metrics_.gauge("serve.plan_cache.hits")
      .set(static_cast<double>(plan_cache_.hits()));
  metrics_.gauge("serve.plan_cache.misses")
      .set(static_cast<double>(plan_cache_.misses()));
  metrics_.gauge("serve.result_cache.entries")
      .set(static_cast<double>(cache_.size()));
  metrics_.gauge("serve.result_cache.evictions")
      .set(static_cast<double>(cache_.evictions()));
  metrics_.gauge("serve.result_cache.saved_seconds")
      .set(cache_.saved_seconds());
  std::size_t open = 0;
  for (std::size_t w = 0; w < breakers_.size(); ++w) {
    const CircuitBreaker::State st = breakers_[w]->state();
    if (st != CircuitBreaker::State::Closed) ++open;
    // 0 = closed, 1 = open, 2 = half-open (the enum's order).
    metrics_.gauge("serve.worker." + std::to_string(w) + ".breaker_state")
        .set(static_cast<double>(st));
  }
  metrics_.gauge("serve.breaker.open_workers").set(static_cast<double>(open));
  if (slo_.enabled()) {
    const obs::SloMonitor::Status ss = slo_.status();
    metrics_.gauge("serve.slo.latency_burn_rate").set(ss.latency_burn_rate);
    metrics_.gauge("serve.slo.error_burn_rate").set(ss.error_burn_rate);
    metrics_.gauge("serve.slo.window_total")
        .set(static_cast<double>(ss.total));
    metrics_.gauge("serve.slo.latency_breaches")
        .set(static_cast<double>(slo_.latency_breaches()));
    metrics_.gauge("serve.slo.error_breaches")
        .set(static_cast<double>(slo_.error_breaches()));
  }
  // Per-backend health, one `backend.<lane>.*` set per slot. A device's
  // launch gauge is the device-wide count (one backend launch may run
  // several kernels); its fault gauge is the device injector's, which sees
  // every lane. Counter reads take the same launch lock launch_count()
  // does.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    backend::Counters bc;
    {
      const std::lock_guard<std::mutex> lock(slot.mu);
      bc = slot.be->counters();
      if (slot.dev) bc.launches = slot.dev->launch_count();
    }
    const std::string base = "backend." + shard_lanes_[i].name + ".";
    metrics_.gauge(base + "launches").set(static_cast<double>(bc.launches));
    metrics_.gauge(base + "faults").set(static_cast<double>(bc.faults));
    metrics_.gauge(base + "staged_bytes")
        .set(static_cast<double>(bc.bytes_staged));
  }
  const shard::Router::Stats rs = shard_router_.stats();
  metrics_.gauge("serve.shard.stage_hits")
      .set(static_cast<double>(rs.stage_hits));
  metrics_.gauge("serve.shard.stage_misses")
      .set(static_cast<double>(rs.stage_misses));
  metrics_.gauge("serve.shard.evictions")
      .set(static_cast<double>(rs.evictions));
  // Cost-attribution rollups (`serve.cost.*`) and the planner's
  // estimate-feedback accuracy (`planner.estimate.*`).
  cost_ledger_.export_metrics(metrics_);
  const core::EstimateCorrector::Stats es = corrector_.overall();
  metrics_.gauge("planner.estimate.keys")
      .set(static_cast<double>(corrector_.keys()));
  metrics_.gauge("planner.estimate.samples")
      .set(static_cast<double>(es.samples));
  metrics_.gauge("planner.estimate.factor_hot").set(es.factor);
  metrics_.gauge("planner.estimate.mae_uncorrected").set(es.mae_uncorrected);
  metrics_.gauge("planner.estimate.mae_corrected").set(es.mae_corrected);
  metrics_.gauge("planner.estimate.recent_err_corrected")
      .set(es.recent_err_corrected);
}

bool QueryEngine::dump_flight(const std::string& path) const {
  return flight_.dump(path, "manual", latency_.summary().p99,
                      cfg_.slo.latency_seconds);
}

std::string QueryEngine::metrics_json() const {
  (void)stats();  // refreshes the derived gauges
  return metrics_.json_snapshot();
}

std::uint64_t QueryEngine::launch_count() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    const std::lock_guard<std::mutex> lock(slot.mu);
    total += slot.dev ? slot.dev->launch_count() : slot.be->counters().launches;
  }
  {
    const std::lock_guard<std::mutex> lock(failover_mu_);
    if (failover_cpu_) total += failover_cpu_->counters().launches;
  }
  return total;
}

vgpu::FaultStats QueryEngine::fault_stats(std::size_t device) const {
  if (device >= cfg_.devices)
    throw std::out_of_range("QueryEngine::fault_stats: no device " +
                            std::to_string(device));
  const Slot& slot = slots_[device];
  const std::lock_guard<std::mutex> lock(slot.mu);
  const vgpu::FaultInjector* inj = slot.dev->fault_injector();
  return inj != nullptr ? inj->stats() : vgpu::FaultStats{};
}

}  // namespace tbs::serve
