// Stream — a lane onto one simulated device whose launches run their
// blocks on the block queue every pooled launch shares — and LaunchTarget,
// the one parameter type every kernel entry point takes.
//
// A Stream launch runs at once and returns its counters. Its blocks go on
// the process-wide block queue, where the launching thread and the helper
// threads (see `set_async_worker_count`) claim them; launches on different
// devices run at once and share the helpers. Yet the counters are
// bit-identical to `Device::launch`, which runs the blocks inline on the
// calling thread — see device.cpp for the contract that makes this hold:
// every block starts from empty caches, and block counters merge in
// block-id order.
//
// Determinism contract: functional results are deterministic for kernels
// whose cross-block global-memory traffic is commutative-exact (integer
// atomics, disjoint stores) and which do not consume the *returned* old
// value of contended atomics — true of every SDH/PCF variant. A stream is
// driven from one host thread at a time, like a CUDA stream.
#pragma once

#include <functional>

#include "vgpu/device.hpp"

namespace tbs::vgpu {

/// A launch lane bound to one Device: one launch at a time, its blocks on
/// the block queue.
class Stream {
 public:
  explicit Stream(Device& device) : dev_(&device) {}

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] Device& device() const noexcept { return *dev_; }

  /// Run one launch with its blocks on the block queue and return its
  /// counters. Throws exactly as Device::launch does.
  KernelStats launch(const LaunchConfig& cfg, const KernelBody& body) {
    return dev_->execute_launch(cfg, body, /*pooled=*/true);
  }

 private:
  Device* dev_;
};

/// Where a kernel's launches run: a Device& runs blocks inline on the
/// calling thread, a Stream& runs them on the block queue. Both convert
/// implicitly, so each kernel entry point has one definition serving both,
/// with bit-identical counters.
class LaunchTarget {
 public:
  // Implicit on purpose: call sites pass a Device& or a Stream& as is.
  LaunchTarget(Device& device) noexcept : dev_(&device) {}
  LaunchTarget(Stream& stream) noexcept
      : dev_(&stream.device()), pooled_(true) {}

  [[nodiscard]] Device& device() const noexcept { return *dev_; }

  KernelStats launch(const LaunchConfig& cfg, const KernelBody& body) const {
    return dev_->execute_launch(cfg, body, pooled_);
  }

 private:
  Device* dev_;
  bool pooled_ = false;
};

/// Set how many threads run one stream launch's blocks: n - 1 helper
/// threads, which every stream launch in the process shares, plus the
/// launching thread (0 = hardware concurrency, at least 1). Only effective
/// before the first stream launch of the process — the helpers start once,
/// on first use.
void set_async_worker_count(unsigned n);

/// Threads per stream launch, the launching thread included (starts the
/// helpers on first call).
unsigned async_worker_count();

/// Run task(i) for every i in [0, n) on the block queue, claimed in index
/// order: the calling thread and the helpers take tasks until none is
/// left, so at most async_worker_count() run at once. Returns once every
/// task has finished. A task must not throw. It may issue stream launches
/// of its own: a launching thread claims its own launch's blocks, so
/// nesting cannot deadlock.
void run_tasks(int n, const std::function<void(int)>& task);

}  // namespace tbs::vgpu
