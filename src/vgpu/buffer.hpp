// Global-memory buffers for the simulated device.
//
// A DeviceBuffer<T> is the vgpu analogue of a cudaMalloc'd array: kernels
// access it exclusively through awaitable load/store/atomic operations, and
// the executor charges global-memory (or read-only-cache) cost per warp
// access. Host code reads/writes through host() freely between launches.
#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/points.hpp"
#include "vgpu/ctx.hpp"

namespace tbs::vgpu {

/// cudaMalloc guarantees at least 256-byte alignment; mirror that so the
/// coalescing / cache-set analysis of a launch depends only on the layout
/// *within* each buffer, never on where the host allocator happened to
/// place it. Without this, counters drift between otherwise identical runs
/// whenever malloc returns a different address.
inline constexpr std::size_t kDeviceAllocAlign = 256;

template <class T>
struct DeviceAllocator {
  using value_type = T;

  DeviceAllocator() = default;
  template <class U>
  DeviceAllocator(const DeviceAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T),
                                          std::align_val_t{kDeviceAllocAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kDeviceAllocAlign});
  }

  template <class U>
  bool operator==(const DeviceAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  /// Allocate n elements, value-initialized.
  explicit DeviceBuffer(std::size_t n, T init = T{}) : data_(n, init) {}

  /// Allocate and copy from host data.
  explicit DeviceBuffer(std::span<const T> host_data)
      : data_(host_data.begin(), host_data.end()) {}

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  /// Host-side view (valid only between launches).
  [[nodiscard]] std::span<T> host() noexcept { return data_; }
  [[nodiscard]] std::span<const T> host() const noexcept { return data_; }

  /// Reset every element (e.g. zero an output histogram between launches).
  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Global-memory load (goes through the simulated L2).
  [[nodiscard]] detail::LoadAwaiter<T> load(ThreadCtx& ctx,
                                            std::size_t i) const {
    return make_load(ctx, i, OpKind::GlobalLoad);
  }

  /// Load through the read-only data cache path (CUDA `const __restrict__`
  /// / __ldg). Functionally identical; charged at ROC latency on hits.
  [[nodiscard]] detail::LoadAwaiter<T> ro_load(ThreadCtx& ctx,
                                               std::size_t i) const {
    return make_load(ctx, i, OpKind::RocLoad);
  }

  [[nodiscard]] detail::StoreAwaiter<T> store(ThreadCtx& ctx, std::size_t i,
                                              T v) {
    detail::StoreAwaiter<T> aw;
    aw.ctx = &ctx;
    aw.op.kind = OpKind::GlobalStore;
    aw.op.n_addr = 1;
    aw.op.elem_bytes = sizeof(T);
    aw.op.addr[0] = addr_of(i);
    aw.dst = &data_[i];
    aw.value = v;
    return aw;
  }

  /// atomicAdd on global memory; returns the previous value.
  [[nodiscard]] detail::AtomicAddAwaiter<T> atomic_add(ThreadCtx& ctx,
                                                       std::size_t i, T v) {
    detail::AtomicAddAwaiter<T> aw;
    aw.ctx = &ctx;
    aw.op.kind = OpKind::GlobalAtomic;
    aw.op.n_addr = 1;
    aw.op.elem_bytes = sizeof(T);
    aw.op.addr[0] = addr_of(i);
    aw.dst = &data_[i];
    aw.value = v;
    return aw;
  }

 private:
  [[nodiscard]] std::uintptr_t addr_of(std::size_t i) const {
    check(i < data_.size(), "DeviceBuffer access out of range");
    return reinterpret_cast<std::uintptr_t>(data_.data() + i);
  }

  [[nodiscard]] detail::LoadAwaiter<T> make_load(ThreadCtx& ctx,
                                                 std::size_t i,
                                                 OpKind kind) const {
    detail::LoadAwaiter<T> aw;
    aw.ctx = &ctx;
    aw.op.kind = kind;
    aw.op.n_addr = 1;
    aw.op.elem_bytes = sizeof(T);
    aw.op.addr[0] = addr_of(i);
    aw.src = &data_[i];
    return aw;
  }

  std::vector<T, DeviceAllocator<T>> data_;
};

/// SoA 3-D point set resident in simulated global memory (paper Sec. IV-A:
/// separate x/y/z arrays so warp loads coalesce).
class DevicePoints {
 public:
  DevicePoints() = default;

  explicit DevicePoints(const PointsSoA& pts)
      : x_(pts.x()), y_(pts.y()), z_(pts.z()) {}

  [[nodiscard]] std::size_t size() const noexcept { return x_.size(); }

  /// Load point i from global memory as one logical (3-address) instruction.
  [[nodiscard]] detail::PointLoadAwaiter load_point(ThreadCtx& ctx,
                                                    std::size_t i) const {
    return make_point_load(ctx, i, OpKind::GlobalLoad);
  }

  /// Load point i through the read-only cache path.
  [[nodiscard]] detail::PointLoadAwaiter ro_load_point(ThreadCtx& ctx,
                                                       std::size_t i) const {
    return make_point_load(ctx, i, OpKind::RocLoad);
  }

  [[nodiscard]] DeviceBuffer<float>& x() noexcept { return x_; }
  [[nodiscard]] DeviceBuffer<float>& y() noexcept { return y_; }
  [[nodiscard]] DeviceBuffer<float>& z() noexcept { return z_; }

 private:
  [[nodiscard]] detail::PointLoadAwaiter make_point_load(ThreadCtx& ctx,
                                                         std::size_t i,
                                                         OpKind kind) const {
    check(i < size(), "DevicePoints access out of range");
    detail::PointLoadAwaiter aw;
    aw.ctx = &ctx;
    aw.op.kind = kind;
    aw.op.n_addr = 3;
    aw.op.elem_bytes = sizeof(float);
    aw.op.addr[0] = reinterpret_cast<std::uintptr_t>(x_.host().data() + i);
    aw.op.addr[1] = reinterpret_cast<std::uintptr_t>(y_.host().data() + i);
    aw.op.addr[2] = reinterpret_cast<std::uintptr_t>(z_.host().data() + i);
    aw.px = x_.host().data() + i;
    aw.py = y_.host().data() + i;
    aw.pz = z_.host().data() + i;
    return aw;
  }

  mutable DeviceBuffer<float> x_;
  mutable DeviceBuffer<float> y_;
  mutable DeviceBuffer<float> z_;
};

/// Shared-memory tile of 3-D points (three SharedSpan<float> lanes).
class SharedPointsTile {
 public:
  SharedPointsTile() = default;

  /// Carve a B-point tile out of the block's shared arena at byte_offset.
  /// Layout: x[B], y[B], z[B] back-to-back.
  SharedPointsTile(ThreadCtx& ctx, std::size_t byte_offset, std::size_t b)
      : x_(ctx.shared<float>(byte_offset, b)),
        y_(ctx.shared<float>(byte_offset + b * sizeof(float), b)),
        z_(ctx.shared<float>(byte_offset + 2 * b * sizeof(float), b)),
        size_(b) {}

  /// Bytes of shared memory a B-point tile occupies.
  static constexpr std::size_t bytes(std::size_t b) noexcept {
    return 3 * b * sizeof(float);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] detail::PointLoadAwaiter load_point(ThreadCtx& ctx,
                                                    std::size_t i) const;
  [[nodiscard]] detail::PointStoreAwaiter store_point(ThreadCtx& ctx,
                                                      std::size_t i,
                                                      Point3 p) const;

 private:
  SharedSpan<float> x_;
  SharedSpan<float> y_;
  SharedSpan<float> z_;
  std::size_t size_ = 0;
};

inline detail::PointLoadAwaiter SharedPointsTile::load_point(
    ThreadCtx& ctx, std::size_t i) const {
  const auto lx = x_.load(ctx, i);
  const auto ly = y_.load(ctx, i);
  const auto lz = z_.load(ctx, i);
  detail::PointLoadAwaiter aw;
  aw.ctx = &ctx;
  aw.op.kind = OpKind::SharedLoad;
  aw.op.n_addr = 3;
  aw.op.elem_bytes = sizeof(float);
  aw.op.addr = {lx.op.addr[0], ly.op.addr[0], lz.op.addr[0]};
  aw.px = lx.src;
  aw.py = ly.src;
  aw.pz = lz.src;
  return aw;
}

inline detail::PointStoreAwaiter SharedPointsTile::store_point(
    ThreadCtx& ctx, std::size_t i, Point3 p) const {
  auto sx = x_.store(ctx, i, p.x);
  auto sy = y_.store(ctx, i, p.y);
  auto sz = z_.store(ctx, i, p.z);
  detail::PointStoreAwaiter aw;
  aw.ctx = &ctx;
  aw.op.kind = OpKind::SharedStore;
  aw.op.n_addr = 3;
  aw.op.elem_bytes = sizeof(float);
  aw.op.addr = {sx.op.addr[0], sy.op.addr[0], sz.op.addr[0]};
  aw.px = sx.dst;
  aw.py = sy.dst;
  aw.pz = sz.dst;
  aw.value = p;
  return aw;
}

}  // namespace tbs::vgpu
