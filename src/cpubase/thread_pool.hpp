// Minimal reusable thread pool + parallel_for with OpenMP-style schedules.
//
// The paper's CPU baseline is an OpenMP program whose tuning knobs are the
// scheduling mode (static / dynamic / guided) and thread affinity. We
// implement the schedules ourselves so the baseline is self-contained and
// its behaviour is testable. Workers run unpinned: a pinning policy maps
// worker i of *every* pool to the same core, so pools that run at once (an
// engine's CPU workers, its failover pool) would stack on a few cores, and
// worker 0, the calling thread, would stay pinned after the launch.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tbs::cpubase {

/// Loop-scheduling policy, mirroring OpenMP's `schedule(...)` clause.
enum class Schedule {
  Static,   ///< one contiguous chunk per worker
  Dynamic,  ///< fixed-size chunks grabbed from a shared counter
  Guided,   ///< exponentially shrinking chunks (remaining / 2n)
};

const char* to_string(Schedule s);

/// Fixed-size worker pool. Workers sleep between parallel regions.
/// Thread-safe for one parallel_for at a time (matching OpenMP regions).
class ThreadPool {
 public:
  /// Spawn `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept { return thread_count_; }

  /// Run `body(worker_id)` once on every worker (worker 0 is the caller).
  void run_on_all(const std::function<void(unsigned)>& body);

 private:
  void worker_loop(unsigned id);

  unsigned thread_count_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool stopping_ = false;
};

/// Parallel loop over [begin, end) with the given schedule. `body` receives
/// (worker_id, index_begin, index_end) for each chunk; `chunk` is the
/// dynamic-schedule grain (also the guided minimum).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Schedule schedule,
                  const std::function<void(unsigned, std::size_t,
                                           std::size_t)>& body,
                  std::size_t chunk = 256);

}  // namespace tbs::cpubase
