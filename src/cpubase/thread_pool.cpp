#include "cpubase/thread_pool.hpp"

#include <atomic>

#include "common/error.hpp"

namespace tbs::cpubase {

ThreadPool::ThreadPool(unsigned threads)
    : thread_count_(threads == 0
                        ? std::max(1u, std::thread::hardware_concurrency())
                        : threads) {
  workers_.reserve(thread_count_ - 1);
  for (unsigned id = 1; id < thread_count_; ++id)
    workers_.emplace_back([this, id] { worker_loop(id); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock,
                     [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(id);
    {
      const std::lock_guard lock(mutex_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run_on_all(const std::function<void(unsigned)>& body) {
  if (thread_count_ == 1) {
    body(0);
    return;
  }
  {
    const std::lock_guard lock(mutex_);
    job_ = &body;
    remaining_ = thread_count_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  body(0);
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(unsigned, std::size_t,
                                           std::size_t)>& body) {
  check(begin <= end, "parallel_for: inverted range");
  if (begin == end) return;
  constexpr std::size_t kMinChunk = 64;  // the guided schedule's grain
  const unsigned n = pool.size();
  std::atomic<std::size_t> next{begin};
  pool.run_on_all([&](unsigned id) {
    for (;;) {
      std::size_t lo = next.load(std::memory_order_relaxed);
      std::size_t take = 0;
      do {
        if (lo >= end) return;
        take = std::min(std::max(kMinChunk, (end - lo) / (2 * n)), end - lo);
      } while (!next.compare_exchange_weak(lo, lo + take));
      body(id, lo, lo + take);
    }
  });
}

}  // namespace tbs::cpubase
