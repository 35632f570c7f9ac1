// IBackend — the execution-substrate seam.
//
// Every layer above the kernels used to be hard-wired to vgpu::Stream;
// this interface makes the substrate a value. The shape follows the
// IGpuBackend idiom (init / allocate+upload / run / readback), collapsed
// to what this simulator needs:
//
//   caps()       capability negotiation: substrate kind, registry backend
//                mask, parallelism, shared-memory budget
//   can_launch() per-(variant, problem, block) launchability — e.g. a vgpu
//                backend refuses variants whose shared demand exceeds the
//                device cap; a CPU backend refuses vgpu-only variants
//   stage()      buffer alloc + upload of a point set (readback happens
//                through the KernelOutput sinks a launch fills)
//   launch()     typed launch of one registry variant
//   estimate()   the backend's own cost model for a candidate — the
//                planner prices (backend × variant × block) through this,
//                so heterogeneous placement needs no backend-specific code
//                in core::plan()
//   counters()   snapshot for dashboards and "zero new launches" tests
//
// Implementations: VgpuBackend (wraps Device/Stream; fault injection and
// launch observers flow through untouched) and CpuBackend (thread-pool +
// tiled loops + the sub-quadratic tree path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/points.hpp"
#include "kernels/registry.hpp"
#include "vgpu/stats.hpp"

namespace tbs::backend {

enum class Kind { Vgpu, Cpu };

const char* to_string(Kind k);

/// What a backend can do — the negotiation half of the seam.
struct Capabilities {
  Kind kind = Kind::Vgpu;
  /// Stable identity, e.g. "vgpu:sim-titan-x" or "cpu:8w". Plans and cache
  /// keys carry this string, never a pointer to the backend.
  std::string name;
  /// The kernels::kBackend* bit this backend launches through; variants are
  /// filtered by KernelVariant::supports(registry_mask).
  unsigned registry_mask = 0;
  /// SM count (vgpu) or worker threads (cpu).
  int parallel_units = 0;
  /// Per-block dynamic shared memory budget; 0 when not applicable.
  std::size_t shared_mem_per_block_cap = 0;
  /// Whether estimate()'s price of a PCF candidate reads the radius. Plans
  /// are keyed on the problem as the prices read it (priced_problem), so
  /// where it does not, every radius shares one calibration.
  bool pcf_price_reads_radius = true;
};

/// `desc` as the estimate() of a backend with `caps` reads it: every field
/// its prices do not read is reset to its default. Two problems with equal
/// views get equal prices for every candidate and sample, so
/// core::plan_cache_key keys on the view and they share one calibration.
kernels::ProblemDesc priced_problem(const Capabilities& caps,
                                    const kernels::ProblemDesc& desc);

/// One priced candidate, in the backend's own cost model.
struct Estimate {
  double seconds = 0.0;
  std::string bottleneck;  ///< e.g. "compute", "shared", "cpu-pairs"
  /// Counters whose fit went below zero at the target size and were
  /// priced as 0 (perfmodel::StatsPoly); 0 for a model without a fit.
  std::size_t clamped_fits = 0;
};

/// Monotonic per-backend counters (snapshot semantics).
struct Counters {
  std::uint64_t launches = 0;      ///< successful kernel launches
  std::uint64_t faults = 0;        ///< device errors on the substrate
  std::uint64_t bytes_staged = 0;  ///< bytes moved through stage()
};

class IBackend {
 public:
  virtual ~IBackend() = default;

  [[nodiscard]] virtual const Capabilities& caps() const = 0;

  /// Registry-mask check only — the cheap half of can_launch().
  [[nodiscard]] bool supports(const kernels::KernelVariant& v) const {
    return v.supports(caps().registry_mask);
  }

  /// Full launchability check for a concrete configuration.
  [[nodiscard]] virtual bool can_launch(const kernels::KernelVariant& v,
                                        const kernels::ProblemDesc& desc,
                                        int block_size) const = 0;

  /// Allocate + upload the point set to the substrate; returns the bytes
  /// moved. Idempotent per dataset; launches restage internally as needed
  /// (the simulator's kernels own their staging), so this exists for
  /// transfer accounting and warm-up, not correctness.
  virtual std::size_t stage(const PointsSoA& pts) = 0;

  /// Launch `v` on this substrate and fill `out` (the readback sinks).
  /// Throws vgpu::DeviceError on (injected) device faults; CPU launches
  /// only throw on precondition violations.
  virtual vgpu::KernelStats launch(const kernels::KernelVariant& v,
                                   const PointsSoA& pts,
                                   const kernels::ProblemDesc& desc,
                                   int block_size,
                                   kernels::KernelOutput& out) = 0;

  /// Launch the fixed cross-set kernel for `desc.type` over the
  /// anchors × partners rectangle and fill `out` — the unit of work a
  /// cross-shard tile executes (see src/shard/). Unlike launch(), the
  /// kernel is not a registry variant: each substrate has one cross recipe
  /// per problem type (Reg-ROC + privatized output on vgpu, the tiled loop
  /// on CPU), and both bucket through the same double-precision division,
  /// so summing tile partials stays bit-identical to a single-set run.
  /// Throws vgpu::DeviceError on (injected) device faults.
  virtual vgpu::KernelStats launch_cross(const PointsSoA& anchors,
                                         const PointsSoA& partners,
                                         const kernels::ProblemDesc& desc,
                                         int block_size,
                                         kernels::KernelOutput& out) = 0;

  /// Price running `v` on `target_n` points. `sample` supplies the data
  /// distribution for calibration. The price reads only the arguments and
  /// the backend's fixed configuration, never state that launches change,
  /// and any calibration run uses resources of its own (a cold device, a
  /// private pool). So estimate() may be called from several threads at
  /// once and alongside this backend's launches, without its launch lock.
  [[nodiscard]] virtual Estimate estimate(const kernels::KernelVariant& v,
                                          const PointsSoA& sample,
                                          const kernels::ProblemDesc& desc,
                                          int block_size,
                                          double target_n) = 0;

  [[nodiscard]] virtual Counters counters() const = 0;
};

}  // namespace tbs::backend
