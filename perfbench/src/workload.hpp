// The benchmark's three seeded closed-loop workloads: how each sizes the
// engine, which queries it sends, and how it primes the engine before the
// timed phase. Only the generated points and queries reach the engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/points.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// One scheduled submission.
struct Item {
  tbs::serve::Query query;
  std::size_t dataset = 0;  ///< index into Schedule::datasets
  std::size_t shards = 0;   ///< SubmitOptions::shards
};

/// Thread budget, derived from the machine's core count.
struct Budget {
  unsigned nproc = 1;
  std::size_t clients = 1;
  std::size_t devices = 0;
  std::size_t streams_per_device = 1;
  std::size_t cpu_workers = 0;
  unsigned cpu_threads = 1;
  unsigned async_workers = 1;  ///< vgpu::set_async_worker_count
};

struct Schedule {
  std::string workload;
  Budget budget;
  tbs::serve::QueryEngine::Config config;
  std::vector<tbs::PointsSoA> datasets;
  std::vector<Item> items;    ///< timed submissions, in order
  std::vector<Item> priming;  ///< set-up submissions (plan-cache priming)
  std::size_t input_bytes = 0;  ///< coordinates of every generated dataset
};

/// Generate a workload's datasets and queries from `seed` (same seed, same
/// inputs) and size its engine for a machine with `nproc` cores. The
/// workloads are "vgpu-mixed", "cpu-radius" and "hot-audited"; any other
/// name throws std::invalid_argument.
Schedule make_schedule(const std::string& workload, std::uint64_t seed,
                       unsigned nproc);

/// Pairs a query examines on an n-point dataset: n(n-1)/2.
double pairs_of(std::size_t n);

}  // namespace perfbench
