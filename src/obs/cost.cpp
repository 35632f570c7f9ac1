#include "obs/cost.hpp"

#include <algorithm>
#include <fstream>

#include "obs/json.hpp"

namespace tbs::obs {

namespace {

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

std::string phases_json(const std::array<PhaseCost, kCostPhases>& phases) {
  std::string out = "{";
  for (std::size_t i = 0; i < kCostPhases; ++i) {
    if (i != 0) out += ", ";
    const PhaseCost& p = phases[i];
    out += "\"";
    out += to_string(static_cast<CostPhase>(i));
    out += "\": {\"seconds\": " + json::number(p.seconds) +
           ", \"device_cycles\": " + json::number(p.device_cycles) +
           ", \"bytes\": " + json::number(p.bytes) + "}";
  }
  out += "}";
  return out;
}

std::string aggregate_json(const CostLedger::Aggregate& a) {
  std::string out =
      "{\"queries\": " + std::to_string(a.queries) +
      ", \"total_seconds\": " + json::number(a.total_seconds) +
      ", \"phase_seconds\": {";
  for (std::size_t i = 0; i < kCostPhases; ++i) {
    if (i != 0) out += ", ";
    out += "\"";
    out += to_string(static_cast<CostPhase>(i));
    out += "\": " + json::number(a.phase_seconds[i]);
  }
  out += "}, \"device_cycles\": " + json::number(a.device_cycles) +
         ", \"bytes\": " + json::number(a.bytes) +
         ", \"waste_seconds\": " + json::number(a.waste_seconds) +
         ", \"waste_events\": " + std::to_string(a.waste_events) +
         ", \"cache_hits\": " + std::to_string(a.cache_hits) +
         ", \"failures\": " + std::to_string(a.failures) + "}";
  return out;
}

std::string rollup_json(const std::map<std::string, CostLedger::Aggregate>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, agg] : m) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json::escape(key);
    out += "\": ";
    out += aggregate_json(agg);
  }
  out += "}";
  return out;
}

}  // namespace

std::string_view to_string(CostPhase p) {
  switch (p) {
    case CostPhase::Queue: return "queue";
    case CostPhase::Plan: return "plan";
    case CostPhase::Stage: return "stage";
    case CostPhase::Launch: return "launch";
    case CostPhase::Merge: return "merge";
    case CostPhase::CacheFill: return "cache_fill";
    case CostPhase::Audit: return "audit";
  }
  return "unknown";
}

double QueryCost::attributed_seconds() const {
  double sum = waste_seconds;
  for (const PhaseCost& p : phases) sum += p.seconds;
  return sum;
}

double QueryCost::tile_seconds() const {
  double sum = 0.0;
  for (const TileCost& t : tiles) sum += t.seconds;
  return sum;
}

std::string QueryCost::to_json() const {
  std::string out =
      "{\"trace_id\": \"" + hex16(trace_id) + "\", \"kind\": \"" +
      json::escape(kind) + "\", \"dataset_fp\": \"" + hex16(dataset_fp) +
      "\", \"backend\": \"" + json::escape(backend) + "\", \"variant\": \"" +
      json::escape(variant) +
      "\", \"total_seconds\": " + json::number(total_seconds) +
      ", \"attributed_seconds\": " + json::number(attributed_seconds()) +
      ", \"phases\": " + phases_json(phases) +
      ", \"waste_seconds\": " + json::number(waste_seconds) +
      ", \"waste_events\": " + std::to_string(waste_events) +
      ", \"cache_hit\": " + (cache_hit ? "true" : "false") +
      ", \"coalesced\": " + (coalesced ? "true" : "false") +
      ", \"degraded\": " + (degraded ? "true" : "false") +
      ", \"failover\": " + (failover ? "true" : "false") +
      ", \"sharded\": " + (sharded ? "true" : "false") +
      ", \"failed\": " + (failed ? "true" : "false") +
      ", \"retries\": " + std::to_string(retries) +
      ", \"lanes_lost\": " + std::to_string(lanes_lost) +
      ", \"tiles_failed_over\": " + std::to_string(tiles_failed_over) +
      ", \"estimate_seconds\": " + json::number(estimate_seconds) +
      ", \"raw_estimate_seconds\": " + json::number(raw_estimate_seconds) +
      ", \"measured_seconds\": " + json::number(measured_seconds);
  out += ", \"tiles\": [";
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    if (i != 0) out += ", ";
    const TileCost& t = tiles[i];
    out += "{\"a\": " + std::to_string(t.a) +
           ", \"b\": " + std::to_string(t.b) +
           ", \"lane\": " + std::to_string(t.lane) + ", \"backend\": \"" +
           json::escape(t.backend) +
           "\", \"seconds\": " + json::number(t.seconds) +
           ", \"stage_seconds\": " + json::number(t.stage_seconds) +
           ", \"staged_bytes\": " + json::number(t.staged_bytes) +
           ", \"device_cycles\": " + json::number(t.device_cycles) +
           ", \"failover\": " + (t.failover ? "true" : "false") + "}";
  }
  out += "]}";
  return out;
}

CostLedger::CostLedger(std::size_t keep_recent)
    : keep_recent_(std::max<std::size_t>(1, keep_recent)) {}

void CostLedger::fold(Aggregate& a, const QueryCost& qc) {
  ++a.queries;
  a.total_seconds += qc.total_seconds;
  for (std::size_t i = 0; i < kCostPhases; ++i) {
    a.phase_seconds[i] += qc.phases[i].seconds;
    a.device_cycles += qc.phases[i].device_cycles;
    a.bytes += qc.phases[i].bytes;
  }
  a.waste_seconds += qc.waste_seconds;
  a.waste_events += qc.waste_events;
  if (qc.cache_hit) ++a.cache_hits;
  if (qc.failed) ++a.failures;
}

void CostLedger::record(const QueryCost& qc) {
  const std::lock_guard<std::mutex> lock(mu_);
  fold(total_, qc);
  if (!qc.backend.empty()) fold(by_backend_[qc.backend], qc);
  if (!qc.variant.empty()) fold(by_variant_[qc.variant], qc);
  fold(by_dataset_[hex16(qc.dataset_fp)], qc);
  if (recent_.size() < keep_recent_) {
    recent_.push_back(qc);
  } else {
    recent_[recent_head_] = qc;
    recent_wrapped_ = true;
  }
  recent_head_ = (recent_head_ + 1) % keep_recent_;
}

CostLedger::Aggregate CostLedger::total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::map<std::string, CostLedger::Aggregate> CostLedger::by_backend() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return by_backend_;
}

std::map<std::string, CostLedger::Aggregate> CostLedger::by_variant() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return by_variant_;
}

std::map<std::string, CostLedger::Aggregate> CostLedger::by_dataset() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return by_dataset_;
}

std::vector<QueryCost> CostLedger::recent() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!recent_wrapped_) return recent_;
  std::vector<QueryCost> out;
  out.reserve(recent_.size());
  for (std::size_t i = 0; i < recent_.size(); ++i)
    out.push_back(recent_[(recent_head_ + i) % recent_.size()]);
  return out;
}

void CostLedger::export_metrics(MetricsRegistry& reg) const {
  Aggregate total;
  std::map<std::string, Aggregate> backends;
  std::map<std::string, Aggregate> variants;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    total = total_;
    backends = by_backend_;
    variants = by_variant_;
  }
  reg.gauge("serve.cost.queries").set(static_cast<double>(total.queries));
  reg.gauge("serve.cost.total_seconds").set(total.total_seconds);
  for (std::size_t i = 0; i < kCostPhases; ++i) {
    std::string name = "serve.cost.phase.";
    name += to_string(static_cast<CostPhase>(i));
    name += "_seconds";
    reg.gauge(name).set(total.phase_seconds[i]);
  }
  reg.gauge("serve.cost.waste_seconds").set(total.waste_seconds);
  reg.gauge("serve.cost.waste_events")
      .set(static_cast<double>(total.waste_events));
  reg.gauge("serve.cost.device_cycles").set(total.device_cycles);
  reg.gauge("serve.cost.bytes").set(total.bytes);
  reg.gauge("serve.cost.cache_hits")
      .set(static_cast<double>(total.cache_hits));
  for (const auto& [name, agg] : backends) {
    reg.gauge("serve.cost.backend." + name + ".seconds")
        .set(agg.total_seconds);
    reg.gauge("serve.cost.backend." + name + ".queries")
        .set(static_cast<double>(agg.queries));
  }
  for (const auto& [name, agg] : variants) {
    reg.gauge("serve.cost.variant." + name + ".seconds")
        .set(agg.total_seconds);
    reg.gauge("serve.cost.variant." + name + ".queries")
        .set(static_cast<double>(agg.queries));
  }
}

std::string CostLedger::json() const {
  Aggregate total;
  std::map<std::string, Aggregate> backends;
  std::map<std::string, Aggregate> variants;
  std::map<std::string, Aggregate> datasets;
  std::vector<QueryCost> recent = this->recent();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    total = total_;
    backends = by_backend_;
    variants = by_variant_;
    datasets = by_dataset_;
  }
  std::string out = "{\"schema\": \"tbs.cost_ledger.v1\", \"total\": " +
                    aggregate_json(total) +
                    ", \"by_backend\": " + rollup_json(backends) +
                    ", \"by_variant\": " + rollup_json(variants) +
                    ", \"by_dataset\": " + rollup_json(datasets) +
                    ", \"recent\": [";
  for (std::size_t i = 0; i < recent.size(); ++i) {
    if (i != 0) out += ", ";
    out += recent[i].to_json();
  }
  out += "]}";
  return out;
}

bool CostLedger::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << json();
  return static_cast<bool>(os);
}

}  // namespace tbs::obs
