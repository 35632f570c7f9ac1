#include "perfmodel/counts.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tbs::perfmodel {

double paper_eq2_naive_global(double n) {
  return n + n * (n - 1.0) / 2.0;
}

double paper_eq3_tiled_global(double n, double b) {
  check(b > 0, "eq3: block size must be positive");
  const double m = n / b;
  // sum_{i=1..M} (M - i) B = B * M(M-1)/2
  return n + b * m * (m - 1.0) / 2.0;
}

double paper_eq4_shmshm_shared(double n, double b) {
  check(b > 0, "eq4: block size must be positive");
  const double m = n / b;
  const double inter = m * (m - 1.0) / 2.0 * b * b;  // sum (M-i) B^2
  const double intra = b * (b - 1.0) / 2.0 * m;      // sum (B-i) M
  return 2.0 * (inter + intra);
}

double paper_eq5_regshm_shared(double n, double b) {
  return paper_eq4_shmshm_shared(n, b) / 2.0;
}

double paper_eq6_output_updates(double n, double b) {
  // sum_{i=1..N} (N + B - i) = N(N-1)/2 + N B  (as printed in the paper)
  return n * (n - 1.0) / 2.0 + n * b;
}

double paper_eq7_reduction_accesses(double n, double b, double hs) {
  check(b > 0, "eq7: block size must be positive");
  const double m = n / b;
  return hs * (m * 3.0 + 1.0);
}

namespace {

/// Fit y = c0 + c1 x + c2 x^2 through three points and evaluate at x.
double quad_interp(const std::array<double, 3>& xs,
                   const std::array<double, 3>& ys, double x) {
  // Lagrange form; exact for the three nodes.
  double out = 0.0;
  for (int i = 0; i < 3; ++i) {
    double term = ys[static_cast<std::size_t>(i)];
    for (int j = 0; j < 3; ++j) {
      if (i == j) continue;
      term *= (x - xs[static_cast<std::size_t>(j)]) /
              (xs[static_cast<std::size_t>(i)] -
               xs[static_cast<std::size_t>(j)]);
    }
    out += term;
  }
  return out;
}

}  // namespace

StatsPoly::StatsPoly(const std::array<double, 3>& ns,
                     const std::array<vgpu::KernelStats, 3>& samples)
    : ns_(ns), samples_(samples) {
  check(ns[0] > 0 && ns[0] < ns[1] && ns[1] < ns[2],
        "StatsPoly: sample sizes must be positive and increasing");
  check(samples[0].block_dim == samples[1].block_dim &&
            samples[1].block_dim == samples[2].block_dim,
        "StatsPoly: samples must share a block size");
}

vgpu::KernelStats StatsPoly::predict(
    double n, std::vector<std::string>* clamped) const {
  using vgpu::KernelStats;
  KernelStats out;

  const auto fit = [&](const char* name, std::array<double, 3> ys) {
    const double y = quad_interp(ns_, ys, n);
    if (y >= 0.0) return y;
    if (clamped != nullptr) clamped->emplace_back(name);
    return 0.0;
  };
  const auto fit_u64 = [&](std::uint64_t KernelStats::* f, const char* name) {
    std::array<double, 3> ys{};
    for (int i = 0; i < 3; ++i)
      ys[static_cast<std::size_t>(i)] = static_cast<double>(
          samples_[static_cast<std::size_t>(i)].*f);
    out.*f = static_cast<std::uint64_t>(std::llround(fit(name, ys)));
  };
  const auto fit_f64 = [&](double KernelStats::* f, const char* name) {
    std::array<double, 3> ys{};
    for (int i = 0; i < 3; ++i)
      ys[static_cast<std::size_t>(i)] =
          samples_[static_cast<std::size_t>(i)].*f;
    out.*f = fit(name, ys);
  };

  fit_u64(&KernelStats::global_loads, "global_loads");
  fit_u64(&KernelStats::global_stores, "global_stores");
  fit_u64(&KernelStats::global_atomics, "global_atomics");
  fit_u64(&KernelStats::roc_loads, "roc_loads");
  fit_u64(&KernelStats::shared_loads, "shared_loads");
  fit_u64(&KernelStats::shared_stores, "shared_stores");
  fit_u64(&KernelStats::shared_atomics, "shared_atomics");
  fit_u64(&KernelStats::shuffles, "shuffles");
  fit_u64(&KernelStats::barriers, "barriers");
  fit_u64(&KernelStats::dram_bytes, "dram_bytes");
  fit_u64(&KernelStats::l2_bytes, "l2_bytes");
  fit_u64(&KernelStats::roc_hit_bytes, "roc_hit_bytes");
  fit_u64(&KernelStats::roc_port_cycles, "roc_port_cycles");
  fit_u64(&KernelStats::shared_bytes, "shared_bytes");
  fit_u64(&KernelStats::global_transactions, "global_transactions");
  fit_u64(&KernelStats::shared_transactions, "shared_transactions");
  fit_u64(&KernelStats::bank_conflict_extra, "bank_conflict_extra");
  fit_u64(&KernelStats::atomic_collision_extra, "atomic_collision_extra");
  fit_u64(&KernelStats::warp_instructions, "warp_instructions");
  fit_u64(&KernelStats::active_lane_slots, "active_lane_slots");
  fit_u64(&KernelStats::possible_lane_slots, "possible_lane_slots");
  fit_f64(&KernelStats::global_atomic_port_cycles,
          "global_atomic_port_cycles");
  fit_f64(&KernelStats::arith_ops, "arith_ops");
  fit_f64(&KernelStats::arith_warp_cycles, "arith_warp_cycles");
  fit_f64(&KernelStats::control_ops, "control_ops");
  fit_f64(&KernelStats::control_warp_cycles, "control_warp_cycles");
  fit_f64(&KernelStats::total_warp_cycles, "total_warp_cycles");
  fit_f64(&KernelStats::max_block_cycles, "max_block_cycles");

  // Phase cycles: fit every phase id present in the samples. (Callers that
  // know a phase's exact scaling law — e.g. the intra-block phase is
  // linear in the block count — should prefer scaling the largest sample
  // directly; see bench/fig7_loadbalance.)
  for (const auto& [id, unused] : samples_[2].phase_cycles) {
    (void)unused;
    std::array<double, 3> ys{};
    for (int i = 0; i < 3; ++i) {
      const auto& pc = samples_[static_cast<std::size_t>(i)].phase_cycles;
      const auto it = pc.find(id);
      ys[static_cast<std::size_t>(i)] = it == pc.end() ? 0.0 : it->second;
    }
    out.phase_cycles[id] = fit("phase_cycles", ys);
  }

  // Config echoes: distinct-lines is H-dependent, not N-dependent.
  out.atomic_distinct_lines = samples_[2].atomic_distinct_lines;
  out.block_dim = samples_[2].block_dim;
  out.grid_dim = static_cast<int>(
      std::ceil(n / static_cast<double>(samples_[2].block_dim)));
  out.shared_bytes_per_block = samples_[2].shared_bytes_per_block;
  out.regs_per_thread = samples_[2].regs_per_thread;
  out.launches = samples_[2].launches;
  return out;
}

}  // namespace tbs::perfmodel
