// Coroutine plumbing for simulated device kernels.
//
// A kernel is any callable returning KernelTask; the executor owns the
// coroutine handle and resumes it lane-by-lane. Each lane's coroutine is
// resumed by exactly one thread, the one that claimed its block; on a
// stream launch different *blocks* may run on different threads of the
// block queue (the launching thread or a helper), at the same time as
// blocks of other devices' launches. The blocks of a launch never share
// coroutine state or cache state (each starts from empty caches, see
// device.cpp), so results are deterministic either way.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace tbs::vgpu {

/// Handle to one simulated device thread (one coroutine per lane).
class KernelTask {
 public:
  struct promise_type {
    std::exception_ptr exception;

    KernelTask get_return_object() {
      return KernelTask(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  KernelTask() = default;
  explicit KernelTask(Handle h) : handle_(h) {}
  KernelTask(KernelTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  KernelTask& operator=(KernelTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  KernelTask(const KernelTask&) = delete;
  KernelTask& operator=(const KernelTask&) = delete;
  ~KernelTask() { destroy(); }

  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }

  /// Run the lane until its next suspension point (or completion), then
  /// rethrow anything the kernel body threw.
  void resume() {
    handle_.resume();
    if (handle_.done() && handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

 private:
  void destroy() {
    if (handle_) handle_.destroy();
    handle_ = nullptr;
  }

  Handle handle_;
};

}  // namespace tbs::vgpu
