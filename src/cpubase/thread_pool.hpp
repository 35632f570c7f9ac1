// Minimal reusable thread pool + the guided parallel_for of the CPU
// baseline.
//
// The paper's CPU baseline is an OpenMP program with a guided loop schedule
// (Sec. IV-D). We implement that schedule ourselves so the baseline is
// self-contained and its behaviour is testable. Workers run unpinned: a
// pinning policy maps worker i of *every* pool to the same core, so pools
// that run at once (an engine's CPU workers, its failover pool) would stack
// on a few cores, and worker 0, the calling thread, would stay pinned after
// the launch.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tbs::cpubase {

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

/// Parallel loop over [begin, end) with OpenMP's guided schedule: workers
/// claim chunks of remaining / 2n indices, never fewer than 64 (or what is
/// left). `body` receives (worker_id, index_begin, index_end) per chunk.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(unsigned, std::size_t,
                                           std::size_t)>& body);

}  // namespace tbs::cpubase
