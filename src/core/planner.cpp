#include "core/planner.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vgpu/stream.hpp"

namespace tbs::core {

namespace {

/// Block sizes explored per vgpu candidate. CPU launches have no block
/// geometry, so CPU candidates are priced once at the conventional 256.
constexpr std::array<int, 3> kBlockSizes = {128, 256, 512};
constexpr std::array<int, 1> kCpuBlockSizes = {256};

/// Price one (backend, variant, block) candidate through the backend's own
/// cost model.
Candidate price(backend::IBackend& be, const PointsSoA& sample,
                const kernels::KernelVariant& kernel,
                const kernels::ProblemDesc& desc, int block_size,
                double target_n) {
  check(!sample.empty(), "planner: empty sample");
  const backend::Estimate est =
      be.estimate(kernel, sample, desc, block_size, target_n);
  if (est.clamped_fits > 0)
    obs::MetricsRegistry::global()
        .counter("core.plan.clamped_fits")
        .inc(est.clamped_fits);
  Candidate c;
  c.name = kernel.name + "/B" + std::to_string(block_size);
  c.predicted_seconds = est.seconds;
  c.bottleneck = est.bottleneck;
  c.backend = be.caps().name;
  c.raw_seconds = est.seconds;
  c.kernel = &kernel;
  c.block_size = block_size;
  c.kind = be.caps().kind;
  return c;
}

/// Make `c` the plan's launch.
void adopt(Plan& p, const Candidate& c) {
  p.kernel = c.kernel;
  p.block_size = c.block_size;
  p.predicted_seconds = c.predicted_seconds;
  p.backend = c.kind;
  p.backend_name = c.backend;
  p.raw_predicted_seconds = c.raw_seconds;
  p.variant_key = c.name;
}

/// Re-price every candidate from its stored raw estimate with the
/// corrector's current factors and rebind the plan to the cheapest
/// corrected candidate. A no-op without a corrector, and on plans whose
/// candidates predate the raw-estimate fields.
void apply_correction(Plan& p, const EstimateCorrector* corrector,
                      double target_n) {
  if (corrector == nullptr || p.considered.empty()) return;
  const Candidate* winner = nullptr;
  for (Candidate& c : p.considered) {
    if (c.kernel == nullptr || !(c.raw_seconds > 0.0)) return;
    c.predicted_seconds =
        c.raw_seconds * corrector->factor(c.backend, c.name, target_n);
    if (winner == nullptr || c.predicted_seconds < winner->predicted_seconds)
      winner = &c;
  }
  const bool changed = winner->kernel != p.kernel ||
                       winner->block_size != p.block_size ||
                       winner->backend != p.backend_name;
  adopt(p, *winner);
  if (changed)
    obs::MetricsRegistry::global().counter("planner.estimate.reranks").inc();
}

}  // namespace

std::string plan_cache_key(std::span<backend::IBackend* const> backends,
                           const kernels::ProblemDesc& desc,
                           double target_n) {
  std::string key;
  for (const backend::IBackend* be : backends) {
    const backend::Capabilities& caps = be->caps();
    key += caps.name;
    key += '/';
    key += std::to_string(caps.parallel_units);
    key += '/';
    key += std::to_string(caps.shared_mem_per_block_cap);
    const kernels::ProblemDesc view = backend::priced_problem(caps, desc);
    key += '|';
    key += kernels::to_string(view.type);
    key += '|';
    append_exact(key, view.bucket_width);
    key += '|';
    key += std::to_string(view.buckets);
    key += '|';
    append_exact(key, view.radius);
    key += '|';
    key += std::to_string(view.k);
    key += '+';
  }
  key += "|N";
  key += std::to_string(estimate_n_bucket(target_n));
  return key;
}

std::optional<Plan> PlanCache::find(const std::string& key) const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

std::optional<Plan> PlanCache::peek(const std::string& key) const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) return std::nullopt;
  return it->second;
}

void PlanCache::store(const std::string& key, const Plan& plan) {
  const std::unique_lock<std::shared_mutex> lock(mu_);
  plans_[key] = plan;
}

std::shared_ptr<std::mutex> PlanCache::calibration_gate(
    const std::string& key) {
  const std::unique_lock<std::shared_mutex> lock(mu_);
  std::shared_ptr<std::mutex>& gate = gates_[key];
  if (gate == nullptr) gate = std::make_shared<std::mutex>();
  return gate;
}

std::uint64_t PlanCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

std::uint64_t PlanCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

std::size_t PlanCache::size() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  return plans_.size();
}

namespace {

/// The calibration round itself: for every backend in the set, enumerate
/// the registry variants it supports, price every launchable (backend,
/// variant, block size) triple through the backend's own cost model, pick
/// the cheapest.
///
/// The candidates are priced at once, as tasks on the vgpu block queue
/// (estimate() may run on any thread), largest block first: those
/// calibrations simulate the most. Each task carries the caller's trace
/// context and keeps its error to itself; once every task has finished,
/// the first candidate's error in enumeration order is rethrown. The
/// winner is picked in enumeration order with a strict less-than, so the
/// plan equals one-at-a-time pricing whatever order the tasks finish in.
Plan calibrate_plan(std::span<backend::IBackend* const> backends,
                    const PointsSoA& sample,
                    const kernels::ProblemDesc& desc, double target_n) {
  check(!backends.empty(), "plan: empty backend set");
  struct Launchable {
    backend::IBackend* be;
    const kernels::KernelVariant* kernel;
    int block_size;
  };
  std::vector<Launchable> configs;
  for (backend::IBackend* be : backends) {
    const auto candidates = kernels::KernelRegistry::instance().plannable(
        desc.type, be->caps().registry_mask);
    const std::span<const int> blocks =
        be->caps().kind == backend::Kind::Vgpu
            ? std::span<const int>(kBlockSizes)
            : std::span<const int>(kCpuBlockSizes);
    for (const kernels::KernelVariant* kernel : candidates) {
      for (const int b : blocks) {
        // Skip configurations the backend cannot launch (shared-memory
        // demand over the device cap, unsupported substrate).
        if (be->can_launch(*kernel, desc, b))
          configs.push_back({be, kernel, b});
      }
    }
  }
  check(!configs.empty(), "plan: no launchable candidate");

  std::vector<std::size_t> issue(configs.size());
  std::iota(issue.begin(), issue.end(), std::size_t{0});
  std::stable_sort(issue.begin(), issue.end(),
                   [&](std::size_t a, std::size_t b) {
                     return configs[a].block_size > configs[b].block_size;
                   });
  std::vector<Candidate> priced(configs.size());
  std::vector<std::exception_ptr> errors(configs.size());
  const obs::TraceContext trace = obs::current_trace_context();
  vgpu::run_tasks(static_cast<int>(issue.size()), [&](int task) {
    const std::size_t i = issue[static_cast<std::size_t>(task)];
    try {
      const obs::ScopedTraceContext scope(trace);
      priced[i] = price(*configs[i].be, sample, *configs[i].kernel, desc,
                        configs[i].block_size, target_n);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  Plan out;
  out.considered = std::move(priced);
  const Candidate* winner = &out.considered.front();
  for (const Candidate& c : out.considered)
    if (c.predicted_seconds < winner->predicted_seconds) winner = &c;
  adopt(out, *winner);
  return out;
}

/// Calibrate with a span + counter around the round (planner counters live
/// in the process-wide registry: the planner is a free function shared by
/// every engine, framework, and bench in the process).
Plan traced_calibrate(std::span<backend::IBackend* const> backends,
                      const PointsSoA& sample,
                      const kernels::ProblemDesc& desc, double target_n,
                      const std::string& key,
                      const EstimateCorrector* corrector) {
  obs::MetricsRegistry::global().counter("core.plan.calibrations").inc();
  obs::Span span("core.plan.calibrate", "core");
  if (!key.empty()) span.attr("key", key);
  Plan out = calibrate_plan(backends, sample, desc, target_n);
  apply_correction(out, corrector, target_n);
  span.attr("candidates", static_cast<std::uint64_t>(out.considered.size()));
  span.attr("winner", out.kernel->name);
  span.attr("backend", out.backend_name);
  span.attr("predicted_seconds", out.predicted_seconds);
  return out;
}

}  // namespace

Plan plan(std::span<backend::IBackend* const> backends,
          const PointsSoA& sample, const kernels::ProblemDesc& desc,
          double target_n, PlanCache* cache,
          const EstimateCorrector* corrector) {
  obs::MetricsRegistry::global().counter("core.plan.calls").inc();
  obs::Span span("core.plan", "core");

  if (cache == nullptr) {
    span.attr("outcome", "calibrated");
    return traced_calibrate(backends, sample, desc, target_n, std::string(),
                            corrector);
  }

  const std::string key = plan_cache_key(backends, desc, target_n);
  span.attr("key", key);
  if (std::optional<Plan> hit = cache->find(key)) {
    obs::MetricsRegistry::global().counter("core.plan.cache_hits").inc();
    span.attr("outcome", "cache_hit");
    // A hit costs zero launches but still gets today's factors: re-rank
    // the memoized candidates from their stored raw estimates.
    apply_correction(*hit, corrector, target_n);
    return *std::move(hit);
  }

  // Single-flight: hold the key's gate across calibration so concurrent
  // misses run one round between them. The loser double-checks under the
  // gate (peek, so the stats stay one-miss-per-client-lookup) and returns
  // the winner's plan without a single launch of its own.
  const std::shared_ptr<std::mutex> gate = cache->calibration_gate(key);
  std::unique_lock<std::mutex> in_flight(*gate, std::defer_lock);
  {
    obs::Span gate_span("core.plan.gate_wait", "core");
    in_flight.lock();
  }
  if (std::optional<Plan> raced = cache->peek(key)) {
    obs::MetricsRegistry::global()
        .counter("core.plan.single_flight_waits")
        .inc();
    span.attr("outcome", "single_flight");
    apply_correction(*raced, corrector, target_n);
    return *std::move(raced);
  }

  span.attr("outcome", "calibrated");
  Plan out =
      traced_calibrate(backends, sample, desc, target_n, key, corrector);
  cache->store(key, out);
  return out;
}

Choice choose(backend::IBackend& be, const PointsSoA& pts,
              const kernels::ProblemDesc& desc,
              const kernels::KernelVariant* preferred, int block_size,
              std::size_t plan_threshold, PlanCache* cache,
              const EstimateCorrector* corrector) {
  const kernels::KernelRegistry& registry = kernels::KernelRegistry::instance();
  const unsigned mask = be.caps().registry_mask;
  Choice c{preferred != nullptr ? preferred : &registry.baseline(desc.type),
           block_size, std::nullopt};
  if (pts.size() > plan_threshold &&
      !registry.plannable(desc.type, mask).empty()) {
    backend::IBackend* one[] = {&be};
    c.plan = plan(one, pts, desc, static_cast<double>(pts.size()), cache,
                  corrector);
    c.kernel = c.plan->kernel;
    c.block_size = c.plan->block_size;
  } else if (!be.can_launch(*c.kernel, desc, block_size)) {
    // A backend that can't run the default (a vgpu-only variant on a CPU
    // backend, a shared-memory demand over the device cap) runs its first
    // launchable variant for the problem instead.
    for (const kernels::KernelVariant* v :
         registry.for_problem(desc.type, mask)) {
      if (be.can_launch(*v, desc, block_size)) {
        c.kernel = v;
        break;
      }
    }
  }
  check(be.can_launch(*c.kernel, desc, c.block_size),
        "choose: no launchable variant for this backend");
  return c;
}

}  // namespace tbs::core
