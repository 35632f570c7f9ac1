// The traced run's layer walk. For every answered submission the walker
// calls the public entry points of the layers below serve in the order the
// engine does (hashing, planning, the backend launch or the sharded
// executor, the kernels that bypass IBackend, the audit re-execution) on
// backends of its own, and records one span per call. The program itself
// is not instrumented: each layer is timed from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/cpu_backend.hpp"
#include "backend/vgpu_backend.hpp"
#include "core/planner.hpp"
#include "measure.hpp"
#include "obs/cost.hpp"
#include "vgpu/device.hpp"
#include "workload.hpp"

namespace perfbench {

/// IBackend decorator that forwards every call to `inner` and records a
/// span around stage(), launch(), launch_cross() and estimate().
class TimedBackend final : public tbs::backend::IBackend {
 public:
  /// `spec` is the simulated device behind a vgpu backend (null for CPU):
  /// its launches are also priced on the modeled clock.
  TimedBackend(tbs::backend::IBackend& inner, SpanLog& log, std::string layer,
               const tbs::vgpu::DeviceSpec* spec = nullptr)
      : inner_(inner), log_(log), layer_(std::move(layer)), spec_(spec) {}

  /// Query and parent span of the calls that follow, and a fresh modeled
  /// clock. Set before handing the backend to a callee; lane threads the
  /// callee starts afterwards read it.
  void bind(std::uint64_t query, std::uint32_t parent, std::string kind) {
    query_ = query;
    parent_ = parent;
    kind_ = std::move(kind);
    model_seconds_ = 0.0;
  }

  /// Modeled device seconds of the launches since bind() (perfmodel
  /// model_time over each launch's KernelStats, as shard::Executor charges
  /// a vgpu lane; the executor cannot see through this decorator).
  [[nodiscard]] double model_seconds() const { return model_seconds_; }

  [[nodiscard]] const tbs::backend::Capabilities& caps() const override {
    return inner_.caps();
  }
  [[nodiscard]] bool can_launch(const tbs::kernels::KernelVariant& v,
                                const tbs::kernels::ProblemDesc& desc,
                                int block_size) const override {
    return inner_.can_launch(v, desc, block_size);
  }
  std::size_t stage(const tbs::PointsSoA& pts) override;
  tbs::vgpu::KernelStats launch(const tbs::kernels::KernelVariant& v,
                                const tbs::PointsSoA& pts,
                                const tbs::kernels::ProblemDesc& desc,
                                int block_size,
                                tbs::kernels::KernelOutput& out) override;
  tbs::vgpu::KernelStats launch_cross(const tbs::PointsSoA& anchors,
                                      const tbs::PointsSoA& partners,
                                      const tbs::kernels::ProblemDesc& desc,
                                      int block_size,
                                      tbs::kernels::KernelOutput& out) override;
  [[nodiscard]] tbs::backend::Estimate estimate(
      const tbs::kernels::KernelVariant& v, const tbs::PointsSoA& sample,
      const tbs::kernels::ProblemDesc& desc, int block_size,
      double target_n) override;
  [[nodiscard]] tbs::backend::Counters counters() const override {
    return inner_.counters();
  }

 private:
  void record(const char* name, double start, double pairs,
              const tbs::vgpu::KernelStats* stats = nullptr);

  tbs::backend::IBackend& inner_;
  SpanLog& log_;
  std::string layer_;
  std::uint64_t query_ = 0;
  std::uint32_t parent_ = 0;
  std::string kind_;
  const tbs::vgpu::DeviceSpec* spec_;
  double model_seconds_ = 0.0;
};

/// One sharded query walked twice: sharded as the engine ran it, and on a
/// single lane, on both clocks.
struct ShardSample {
  double wall_seconds = 0.0;
  double model_seconds = 0.0;  ///< shard::Report::kernel_seconds
  double one_lane_wall_seconds = 0.0;
  double one_lane_model_seconds = 0.0;
  double stage_seconds = 0.0;
  double merge_seconds = 0.0;
};

class Walker {
 public:
  /// Backends sized like the engine of `s`, sharing `plans` with the other
  /// walkers of the run.
  Walker(const Schedule& s, SpanLog& log, tbs::core::PlanCache& plans);

  Walker(const Walker&) = delete;
  Walker& operator=(const Walker&) = delete;

  /// Plan every priming query, as the engine's set-up does.
  void prime();

  /// Walk the layers the engine ran for submission `query` of `item`, as
  /// its cost ledger `qc` reports them. Returns the seconds the walk's
  /// top-level spans cover.
  double walk(std::uint64_t query, const Item& item, const tbs::obs::QueryCost& qc);

  [[nodiscard]] std::uint64_t calibration_launches() const {
    return calibration_launches_;
  }
  [[nodiscard]] const std::vector<ShardSample>& shard_samples() const {
    return shard_samples_;
  }
  /// IBackend::counters() launches summed over the walker's backends.
  [[nodiscard]] std::uint64_t backend_launches() const;

 private:
  /// A layer call that is not behind IBackend, as one top-level span.
  template <typename F>
  void timed(std::uint64_t query, const char* name, const char* layer,
             const char* kind, double pairs, F&& body);

  void walk_planned(std::uint64_t query, const Item& item, TimedBackend& be);
  /// Returns the seconds of the single-lane comparison run, which the
  /// engine did not do.
  double walk_sharded(std::uint64_t query, const Item& item);
  void audit(std::uint64_t query, const Item& item);

  const Schedule& s_;
  SpanLog& log_;
  tbs::core::PlanCache& plans_;
  std::vector<std::unique_ptr<tbs::vgpu::Device>> devices_;
  std::vector<std::unique_ptr<tbs::backend::VgpuBackend>> vgpu_;
  std::unique_ptr<tbs::backend::CpuBackend> cpu_;
  std::vector<std::unique_ptr<TimedBackend>> timed_vgpu_;
  std::unique_ptr<TimedBackend> timed_cpu_;
  std::uint64_t calibration_launches_ = 0;
  std::vector<ShardSample> shard_samples_;
  std::uint64_t hash_sink_ = 0;  ///< keeps the hashing calls observable
};

}  // namespace perfbench
