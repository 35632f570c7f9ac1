// Flight recorder — a bounded lock-free ring of recent per-query events.
//
// When a production query is slow, the interesting evidence (did it queue?
// coalesce? miss the cache? which worker ran it, after what?) is gone by
// the time anyone looks. The flight recorder keeps the last N per-query
// events — submit / cache-hit / coalesce / enqueue / shed / execute /
// complete and the failure, integrity and shard events, each with a
// microsecond timestamp, the query's trace id and plan key, and the worker
// index — and dumps them as structured JSON when something goes wrong: the
// engine's SloMonitor reports a breach, admission control sheds a query, a
// breaker trips, or a human calls dump(). "Why was this query slow"
// becomes answerable after the fact, and the trace id joins each event to
// the query's spans and cost-ledger entry.
//
// Concurrency design (the recorder sits on the submit fast path and in
// every worker, so it must never serialize them):
//   * writers claim a ticket with one fetch_add and fill the slot
//     `ticket % capacity` — no locks, no waiting, wait-free per event;
//   * each slot carries a sequence word (seqlock-style: 2t+1 while slot t
//     is being written, 2t+2 once complete). Readers accept a slot only
//     when the sequence matches the ticket exactly before *and* after
//     copying the payload, so a dump taken mid-write simply skips the
//     torn slot instead of blocking writers;
//   * every payload field is an atomic accessed relaxed, bracketed by the
//     release/acquire fences of the sequence protocol — torn reads are
//     discarded by the sequence check and the scheme is clean under
//     ThreadSanitizer (no non-atomic racing access anywhere).
//
// The ring overwrites oldest events; `dropped()` says how many fell off.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace tbs::serve {

class FlightRecorder {
 public:
  /// Event kinds mirror the engine's submit/execute outcomes, plus the
  /// failure path (faults, retries, breaker trips, degradation), the
  /// integrity layer and the sharded path. The engine's event table
  /// (serve/engine.cpp) says which counters, ring entries, trace-retention
  /// flag and cost-ledger field each kind feeds; some kinds are counted
  /// but never written to the ring. to_string() names follow this order.
  enum class Event : std::uint8_t {
    Submit = 0,    ///< a client entered submit/try_submit
    CacheHit,      ///< served from the result cache
    Coalesce,      ///< attached to an identical in-flight query
    Enqueue,       ///< admitted to the bounded queue
    Shed,          ///< rejected by admission control (queue full)
    ExecuteBegin,  ///< a worker started running the job
    Complete,      ///< the job's promise was fulfilled
    Fail,          ///< the job delivered an exception
    Fault,         ///< an execution attempt hit a device error
    Retry,         ///< the worker is re-attempting after a backoff
    BreakerOpen,   ///< a worker's circuit breaker tripped open
    Degraded,      ///< served by the degraded baseline fallback
    Expire,        ///< deadline expired before execution (cancelled)
    Requeue,       ///< handed back to the queue for another worker
    Abandon,       ///< shut down with the query still queued
    Failover,      ///< served by the cross-backend failover rung
    ShardFailover, ///< a sharded query lost a lane; its tiles rerouted
    IntegrityViolation,  ///< an algebraic invariant rejected an answer
    AuditMismatch,       ///< an audit's reference answer disagreed
    Audit,               ///< an answer was re-executed on the CPU reference
    Quarantine,          ///< an audit mismatch quarantined the worker
    CacheInvalidated,    ///< cache entries purged by a quarantine
    ShardQuery,          ///< the query fanned out over the shard path
    ShardTiles,          ///< tiles a sharded query executed
    ShardTilesFailedOver,  ///< tiles rerouted off a lost lane
    ShardHedge,          ///< straggler tiles hedged onto a spare lane
    HedgeWin,            ///< hedges that beat their primary
    SloBreach,           ///< the SloMonitor's window went into breach
    RejectInvalid,       ///< input validation refused the submission
  };
  static constexpr std::size_t kEvents =
      static_cast<std::size_t>(Event::RejectInvalid) + 1;
  static const char* to_string(Event e);

  /// Query keys are truncated to this many bytes in the ring (the key
  /// prefix carries the query type + shape, which is the identifying part).
  static constexpr std::size_t kKeyBytes = 48;

  /// One consistent event as read back out of the ring.
  struct Record {
    std::uint64_t ticket = 0;      ///< global event index (monotonic)
    double t_us = 0.0;             ///< microseconds since recorder epoch
    Event event = Event::Submit;
    std::uint32_t worker = 0;      ///< worker index for execute/complete
    /// Submit-to-completion for completions; the audit's seconds for Audit.
    double latency_seconds = 0.0;
    std::uint64_t trace_id = 0;    ///< the query's trace (0 = none)
    std::string key;               ///< (truncated) query/plan key
  };

  /// When and where the recorder dumps on its own. An SLO breach (judged
  /// by the engine's obs::SloMonitor) always dumps; sheds and breaker trips
  /// dump only when enabled here.
  struct SloPolicy {
    /// Minimum spacing between automatic dumps — one dump per breach
    /// window, not one per breaching query.
    double window_seconds = 5.0;
    /// Also dump (rate-limited by the same window) when a query is shed.
    bool dump_on_shed = false;
    /// Also dump (same window limiter) when a worker's circuit breaker
    /// trips open — the ring then holds the fault/retry trail that
    /// tripped it.
    bool dump_on_breaker = false;
    /// Where automatic dumps go ("" suppresses the file write; the breach
    /// is still counted, which is what the tests assert on).
    std::string dump_path = "flight_recorder.json";
  };

  /// `capacity` is rounded up to a power of two; 0 disables recording
  /// entirely (every record() is a cheap early-out). Two overloads instead
  /// of a `SloPolicy policy = {}` default — GCC rejects brace-defaulting a
  /// nested class with member initializers while the enclosing class is
  /// still incomplete.
  explicit FlightRecorder(std::size_t capacity = 1024);
  FlightRecorder(std::size_t capacity, SloPolicy policy);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return !slots_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Record one event (wait-free: one fetch_add + relaxed slot stores).
  void record(Event event, std::string_view key, std::uint32_t worker = 0,
              double latency_seconds = 0.0, std::uint64_t trace_id = 0);

  /// Consistent events currently in the ring, oldest first. Slots being
  /// overwritten during the scan are skipped, never blocked on.
  [[nodiscard]] std::vector<Record> snapshot() const;

  [[nodiscard]] std::uint64_t total_recorded() const;
  /// Events overwritten by ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const;

  /// The dump document: {"schema", "reason", "p99_seconds",
  /// "threshold_seconds", "total_recorded", "dropped", "capacity",
  /// "events": [...]}; every event carries its query's "trace_id" (16 hex
  /// digits). A nonzero `trace_id` (the query that triggered the dump) is
  /// included as a top-level field, so the dump names the trace to open in
  /// the exported Chrome trace.
  [[nodiscard]] std::string to_json(std::string_view reason,
                                    double p99_seconds = 0.0,
                                    double threshold_seconds = 0.0,
                                    std::uint64_t trace_id = 0) const;

  /// Write to_json() to `path`; false if the file won't open.
  bool dump(const std::string& path, std::string_view reason = "manual",
            double p99_seconds = 0.0, double threshold_seconds = 0.0,
            std::uint64_t trace_id = 0) const;

  /// The one automatic dump, reason to_string(cause). SloBreach always
  /// dumps (the engine's SloMonitor already judged the breach); Shed needs
  /// `dump_on_shed` and BreakerOpen `dump_on_breaker`; other kinds never
  /// dump. One dump per window whatever the cause: concurrent callers race
  /// on one CAS and exactly one wins. Only the winner evaluates `p99`.
  /// Returns true when this call took the dump.
  bool maybe_dump(Event cause, double threshold_seconds = 0.0,
                  std::uint64_t trace_id = 0,
                  const std::function<double()>& p99 = {});

  /// Automatic dumps so far (every maybe_dump() that dumped).
  [[nodiscard]] std::uint64_t auto_dumps() const {
    return auto_dumps_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 empty; 2t+1 writing; 2t+2 done
    std::atomic<double> t_us{0.0};
    std::atomic<std::uint8_t> event{0};
    std::atomic<std::uint32_t> worker{0};
    std::atomic<double> latency{0.0};
    std::atomic<std::uint64_t> trace_id{0};
    std::array<std::atomic<char>, kKeyBytes> key{};
  };

  [[nodiscard]] std::int64_t now_us() const;

  SloPolicy policy_;
  Clock::time_point epoch_;
  std::vector<Slot> slots_;  ///< size is a power of two (or zero)
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::int64_t> last_dump_us_;
  std::atomic<std::uint64_t> auto_dumps_{0};
};

}  // namespace tbs::serve
