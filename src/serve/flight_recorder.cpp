#include "serve/flight_recorder.hpp"

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace tbs::serve {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  if (n == 0) return 0;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* FlightRecorder::to_string(Event e) {
  // Indexed by Event, so the names stay in the enum's order.
  static constexpr const char* kNames[] = {
      "submit", "cache_hit", "coalesce", "enqueue", "shed", "execute_begin",
      "complete", "fail", "fault", "retry", "breaker_open", "degraded",
      "expire", "requeue", "abandon", "failover", "shard_failover",
      "integrity_violation", "audit_mismatch", "audit", "quarantine",
      "cache_invalidated", "shard_query", "shard_tiles",
      "shard_tiles_failed_over", "shard_hedge", "hedge_win", "slo_breach",
      "reject_invalid"};
  static_assert(std::size(kNames) == kEvents, "one name per event kind");
  const auto i = static_cast<std::size_t>(e);
  return i < kEvents ? kNames[i] : "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : FlightRecorder(capacity, SloPolicy{}) {}

FlightRecorder::FlightRecorder(std::size_t capacity, SloPolicy policy)
    : policy_(std::move(policy)),
      epoch_(Clock::now()),
      slots_(round_up_pow2(capacity)),
      mask_(slots_.empty() ? 0 : slots_.size() - 1),
      last_dump_us_(std::numeric_limits<std::int64_t>::min() / 2) {}

std::int64_t FlightRecorder::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

void FlightRecorder::record(Event event, std::string_view key,
                            std::uint32_t worker, double latency_seconds,
                            std::uint64_t trace_id) {
  if (slots_.empty()) return;
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[ticket & mask_];

  // Seqlock write: mark the slot in-progress, fence so the mark is visible
  // before any payload byte, fill the payload relaxed, then publish with a
  // release store of the completed sequence.
  s.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.t_us.store(static_cast<double>(now_us()), std::memory_order_relaxed);
  s.event.store(static_cast<std::uint8_t>(event), std::memory_order_relaxed);
  s.worker.store(worker, std::memory_order_relaxed);
  s.latency.store(latency_seconds, std::memory_order_relaxed);
  s.trace_id.store(trace_id, std::memory_order_relaxed);
  const std::size_t len = key.size() < kKeyBytes ? key.size() : kKeyBytes;
  for (std::size_t i = 0; i < len; ++i)
    s.key[i].store(key[i], std::memory_order_relaxed);
  if (len < kKeyBytes) s.key[len].store('\0', std::memory_order_relaxed);
  s.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<FlightRecorder::Record> FlightRecorder::snapshot() const {
  std::vector<Record> out;
  if (slots_.empty()) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t first = head > cap ? head - cap : 0;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t t = first; t < head; ++t) {
    const Slot& s = slots_[t & mask_];
    // Accept the slot only if it holds exactly ticket t, complete, both
    // before and after the payload copy (an overwriting writer bumps seq
    // past 2t+2, so torn payloads are rejected by the second check).
    const std::uint64_t want = 2 * t + 2;
    if (s.seq.load(std::memory_order_acquire) != want) continue;
    Record r;
    r.ticket = t;
    r.t_us = s.t_us.load(std::memory_order_relaxed);
    r.event = static_cast<Event>(s.event.load(std::memory_order_relaxed));
    r.worker = s.worker.load(std::memory_order_relaxed);
    r.latency_seconds = s.latency.load(std::memory_order_relaxed);
    r.trace_id = s.trace_id.load(std::memory_order_relaxed);
    char buf[kKeyBytes];
    for (std::size_t i = 0; i < kKeyBytes; ++i)
      buf[i] = s.key[i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != want) continue;
    std::size_t len = 0;
    while (len < kKeyBytes && buf[len] != '\0') ++len;
    r.key.assign(buf, len);
    out.push_back(std::move(r));
  }
  return out;
}

std::uint64_t FlightRecorder::total_recorded() const {
  return head_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::dropped() const {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t cap = slots_.size();
  return head > cap ? head - cap : 0;
}

std::string FlightRecorder::to_json(std::string_view reason,
                                    double p99_seconds,
                                    double threshold_seconds,
                                    std::uint64_t trace_id) const {
  const std::vector<Record> events = snapshot();
  std::string out = "{\n  \"schema\": \"tbs.flight_recorder.v1\",\n";
  out += "  \"reason\": \"" + obs::json::escape(reason) + "\",\n";
  if (trace_id != 0)
    out += "  \"trace_id\": \"" + obs::trace_id_hex(trace_id) + "\",\n";
  out += "  \"p99_seconds\": " + obs::json::finite_number(p99_seconds) + ",\n";
  out += "  \"threshold_seconds\": " +
         obs::json::finite_number(threshold_seconds) + ",\n";
  out += "  \"total_recorded\": " + std::to_string(total_recorded()) + ",\n";
  out += "  \"dropped\": " + std::to_string(dropped()) + ",\n";
  out += "  \"capacity\": " + std::to_string(capacity()) + ",\n";
  out += "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Record& r = events[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"ticket\": " + std::to_string(r.ticket);
    out += ", \"t_us\": " + obs::json::finite_number(r.t_us);
    out += ", \"event\": \"";
    out += to_string(r.event);
    out += "\", \"trace_id\": \"" + obs::trace_id_hex(r.trace_id);
    out += "\", \"key\": \"" + obs::json::escape(r.key) + "\"";
    out += ", \"worker\": " + std::to_string(r.worker);
    if (r.event == Event::Complete || r.event == Event::Fail)
      out += ", \"latency_seconds\": " +
             obs::json::finite_number(r.latency_seconds);
    out += "}";
  }
  out += events.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool FlightRecorder::dump(const std::string& path, std::string_view reason,
                          double p99_seconds, double threshold_seconds,
                          std::uint64_t trace_id) const {
  std::ofstream os(path);
  if (!os) return false;
  os << to_json(reason, p99_seconds, threshold_seconds, trace_id);
  return static_cast<bool>(os);
}

bool FlightRecorder::maybe_dump(Event cause, double threshold_seconds,
                                std::uint64_t trace_id,
                                const std::function<double()>& p99) {
  const bool armed = cause == Event::SloBreach ||
                     (cause == Event::Shed && policy_.dump_on_shed) ||
                     (cause == Event::BreakerOpen && policy_.dump_on_breaker);
  if (!armed) return false;
  // One automatic dump per window: CAS the last-dump stamp forward.
  const std::int64_t now = now_us();
  const auto window =
      static_cast<std::int64_t>(std::llround(policy_.window_seconds * 1e6));
  std::int64_t last = last_dump_us_.load(std::memory_order_relaxed);
  do {
    if (now - last < window) return false;
  } while (!last_dump_us_.compare_exchange_weak(
      last, now, std::memory_order_acq_rel, std::memory_order_relaxed));
  auto_dumps_.fetch_add(1, std::memory_order_relaxed);
  if (!policy_.dump_path.empty())
    dump(policy_.dump_path, to_string(cause), p99 ? p99() : 0.0,
         threshold_seconds, trace_id);
  return true;
}

}  // namespace tbs::serve
