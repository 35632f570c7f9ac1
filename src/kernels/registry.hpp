// Generic kernel registry — the single catalogue of every 2-body-statistics
// kernel variant the system launches.
//
// Before this registry existed, the planner, the framework facade, and each
// benchmark carried its own hand-rolled switch over SdhVariant / PcfVariant
// plus a parallel table of shared-memory formulas. The registry collapses
// that plumbing: a variant registers once with its name, problem type,
// shared-memory requirement, and a type-erased launch functor, and every
// consumer (core/planner.cpp, core/framework.cpp, serve/, bench/)
// enumerates the same table. It covers every served problem — SDH, PCF,
// kNN and distance join — so a query only ever reaches a substrate through
// a registry launch. Adding a ninth SDH variant is a one-entry change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/points.hpp"
#include "vgpu/stats.hpp"
#include "vgpu/stream.hpp"

namespace tbs::cpubase {
class ThreadPool;
}  // namespace tbs::cpubase

namespace tbs::kernels {

/// Which 2-body statistic a kernel computes (paper Sec. III taxonomy:
/// Type-I = register-resident output (PCF, kNN), Type-II = histogram
/// output (SDH), Type-III = global-memory output (distance join)).
enum class ProblemType { Sdh, Pcf, Knn, Join };

const char* to_string(ProblemType t);

/// Everything a launch needs to know about the *problem* (as opposed to the
/// kernel): histogram geometry for SDH, cutoff radius for PCF and join,
/// neighbour count for kNN. One struct so the planner and cache can key on
/// it generically.
struct ProblemDesc {
  ProblemType type = ProblemType::Sdh;
  double bucket_width = 0.0;  ///< SDH only
  int buckets = 0;            ///< SDH only
  double radius = 0.0;        ///< PCF and join
  int k = 0;                  ///< kNN only

  static ProblemDesc sdh(double bucket_width, int buckets) {
    ProblemDesc d;
    d.type = ProblemType::Sdh;
    d.bucket_width = bucket_width;
    d.buckets = buckets;
    return d;
  }

  static ProblemDesc pcf(double radius) {
    ProblemDesc d;
    d.type = ProblemType::Pcf;
    d.radius = radius;
    return d;
  }

  static ProblemDesc knn(int k) {
    ProblemDesc d;
    d.type = ProblemType::Knn;
    d.k = k;
    return d;
  }

  static ProblemDesc join(double radius) {
    ProblemDesc d;
    d.type = ProblemType::Join;
    d.radius = radius;
    return d;
  }
};

/// Output sinks for a registry launch. A consumer passes pointers for the
/// outputs it wants; a variant fills whichever match its problem type
/// (hist for SDH, pairs for PCF, neighbours for kNN, join_pairs for join)
/// and ignores the rest.
struct KernelOutput {
  Histogram* hist = nullptr;
  std::uint64_t* pairs = nullptr;
  std::vector<std::vector<float>>* neighbours = nullptr;
  std::vector<std::pair<std::uint32_t, std::uint32_t>>* join_pairs = nullptr;
};

/// Execution substrates a variant can launch on, as a bitmask. The seam is
/// deliberately coarse — a variant either has a vgpu launch functor, a CPU
/// launch functor, or both; backend::IBackend implementations dispatch to
/// the matching one.
inline constexpr unsigned kBackendVgpu = 1u;
inline constexpr unsigned kBackendCpu = 2u;
inline constexpr unsigned kBackendAny = kBackendVgpu | kBackendCpu;

/// The work one CPU launch of a variant does, in the units CpuBackend
/// prices: pair-equivalents, each costing one calibrated pair evaluation.
struct CpuWork {
  double pairs = 0.0;
  /// Whether the work spreads over the backend's pool (else one thread).
  bool pooled = true;
  /// Names the model in the backend's Estimate, e.g. "cpu-pairs".
  const char* model = "";
};

/// One registered kernel variant.
struct KernelVariant {
  /// Paper-figure name, e.g. "Reg-SHM-Out" — matches to_string(SdhVariant).
  std::string name;
  ProblemType problem = ProblemType::Sdh;
  /// The underlying enum value (static_cast of SdhVariant / PcfVariant /
  /// JoinVariant); -1 for variants outside those enums (e.g. the warpsum
  /// extension, the CPU-only tree path, or the single kNN kernel).
  int variant_id = -1;
  /// Whether the autotuning planner should consider this variant. Mirrors
  /// the paper's evaluation: naive baselines exist for figures, not for
  /// serving real queries.
  bool plannable = false;
  /// The problem's default: what a launch runs when neither the caller nor
  /// the planner picks another variant, and the planner-free fallback.
  /// Exactly one variant per problem type sets it.
  bool baseline = false;
  /// Which backends this variant can execute on (kBackendVgpu/kBackendCpu
  /// bits). A variant only ever launches through a backend whose bit it
  /// declares; the matching launch functor below must be set.
  unsigned backends = kBackendVgpu;

  /// Dynamic shared-memory bytes per block (buckets ignored for Type-I and
  /// for CPU-only variants, which report 0).
  std::function<std::size_t(int block_size, int buckets)> shared_bytes;

  /// Launch on `stream` and fill `out`; returns the merged kernel stats.
  /// Null when the variant does not declare kBackendVgpu.
  std::function<vgpu::KernelStats(vgpu::Stream&, const PointsSoA&,
                                  const ProblemDesc&, int block_size,
                                  KernelOutput&)>
      launch;

  /// CPU peer: run the same statistic on the thread pool and fill `out`.
  /// Counters are host-side facts only (launches, block_dim echo) — the
  /// simulated-access fields stay zero, which is what obs::check_drift
  /// keys its "no simulated counters, skip" rule on. Null when the variant
  /// does not declare kBackendCpu.
  std::function<vgpu::KernelStats(cpubase::ThreadPool&, const PointsSoA&,
                                  const ProblemDesc&, int block_size,
                                  KernelOutput&)>
      launch_cpu;

  /// CPU work model: the work a CPU launch on `target_n` points does,
  /// priced from `sample` (the launch's own points when the engine plans).
  /// Set on the SDH and PCF variants; null where the planner never prices
  /// a CPU launch (kNN, join, the warpsum ablation).
  std::function<CpuWork(const PointsSoA& sample, const ProblemDesc&,
                        double target_n)>
      cpu_work;

  [[nodiscard]] bool supports(unsigned backend_bit) const {
    return (backends & backend_bit) != 0;
  }
};

/// Process-wide catalogue of kernel variants. Populated once at first use;
/// read-only afterwards, so concurrent lookups need no locking.
class KernelRegistry {
 public:
  static const KernelRegistry& instance();

  /// All registered variants, SDH first, in enum order.
  [[nodiscard]] const std::vector<KernelVariant>& variants() const {
    return variants_;
  }

  /// Variants computing the given problem type (registration order) that
  /// support at least one backend in `mask`. The default keeps historical
  /// behaviour: callers that predate the backend seam see the vgpu
  /// catalogue only (CPU-only variants like Tree-SDH stay invisible).
  [[nodiscard]] std::vector<const KernelVariant*> for_problem(
      ProblemType t, unsigned mask = kBackendVgpu) const;

  /// Planner-eligible variants for the given problem type, filtered by the
  /// same backend mask rule as for_problem().
  [[nodiscard]] std::vector<const KernelVariant*> plannable(
      ProblemType t, unsigned mask = kBackendVgpu) const;

  /// Look up a variant by problem type and name; nullptr if absent.
  [[nodiscard]] const KernelVariant* find(ProblemType t,
                                          std::string_view name) const;

  /// Look up a variant by problem type and underlying enum value (the id a
  /// Plan carries in kernel->variant_id); nullptr if absent or id is -1.
  /// The profiler uses this to pair a measured launch with the perfmodel
  /// prediction for the variant that produced it.
  [[nodiscard]] const KernelVariant* find_by_id(ProblemType t,
                                                int variant_id) const;

  /// The problem type's default variant (the one flagged `baseline`):
  /// Reg-ROC-Out for SDH, Register-SHM for PCF, the kNN kernel, and the
  /// two-phase join.
  [[nodiscard]] const KernelVariant& baseline(ProblemType t) const;

 private:
  KernelRegistry();

  std::vector<KernelVariant> variants_;
};

}  // namespace tbs::kernels
