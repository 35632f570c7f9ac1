// TwoBodyFramework — the user-facing facade of the library.
//
// One object owns a simulated device and exposes every 2-BS problem as a
// single synchronous call. The served problems (sdh, pcf, knn, join) pick
// their launch through core::choose — the same rule QueryEngine uses:
// the problem's default variant, auto-planned above kPlanThreshold points
// (price kernel variants, pick the cheapest — the paper's framework
// vision) — and run it through a VgpuBackend on a pooled stream. Plans
// are memoized in a PlanCache: a repeated query shape reuses its plan with
// zero additional calibration launches, and the chosen plan is retrievable
// afterwards for inspection. kde and gram have no registry entry and call
// their kernels directly.
#pragma once

#include <optional>

#include "backend/vgpu_backend.hpp"
#include "core/planner.hpp"
#include "core/problem.hpp"
#include "kernels/pcf.hpp"
#include "kernels/sdh.hpp"
#include "kernels/type1.hpp"
#include "kernels/type3.hpp"
#include "vgpu/device.hpp"

namespace tbs::core {

class TwoBodyFramework {
 public:
  explicit TwoBodyFramework(vgpu::DeviceSpec spec = vgpu::DeviceSpec{});

  [[nodiscard]] vgpu::Device& device() noexcept { return dev_; }

  /// Spatial distance histogram (Type-II), auto-planned.
  kernels::SdhResult sdh(const PointsSoA& pts, double bucket_width,
                         int buckets);

  /// 2-point correlation function (Type-I), auto-planned.
  kernels::PcfResult pcf(const PointsSoA& pts, double radius);

  /// All-point kNN distances (Type-I), k <= kernels::kMaxKnnK.
  kernels::KnnResult knn(const PointsSoA& pts, int k, int block_size = 256);

  /// Gaussian KDE at each point (Type-I).
  kernels::KdeResult kde(const PointsSoA& pts, double bandwidth,
                         int block_size = 256);

  /// Distance join (Type-III); two-phase output strategy by default.
  kernels::JoinResult join(const PointsSoA& pts, double radius,
                           kernels::JoinVariant variant =
                               kernels::JoinVariant::TwoPhase,
                           int block_size = 256);

  /// RBF Gram matrix (Type-III).
  kernels::GramResult gram(const PointsSoA& pts, double gamma,
                           int block_size = 256);

  /// Plan chosen by the most recent sdh/pcf/knn/join call; empty when that
  /// call ran its default variant without planning.
  [[nodiscard]] const std::optional<Plan>& last_plan() const {
    return last_plan_;
  }

  /// The memoized plans accumulated by planned calls.
  [[nodiscard]] const PlanCache& plan_cache() const { return plan_cache_; }

 private:
  /// Choose the launch (core::choose; null `preferred` means the
  /// problem's registry baseline) and run it through the backend.
  vgpu::KernelStats run(const PointsSoA& pts,
                        const kernels::ProblemDesc& desc,
                        kernels::KernelOutput& out, int block_size = 256,
                        const kernels::KernelVariant* preferred = nullptr);

  vgpu::Device dev_;
  backend::VgpuBackend be_{dev_};  ///< registry launches flow through here
  PlanCache plan_cache_;
  std::optional<Plan> last_plan_;
};

}  // namespace tbs::core
