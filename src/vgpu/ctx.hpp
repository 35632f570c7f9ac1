// ThreadCtx — the per-lane view of the simulated device — and the awaitable
// operation types kernels use to touch memory, synchronize and shuffle.
//
// Kernel authoring model (mirrors CUDA):
//   KernelTask my_kernel(ThreadCtx& ctx, Params params) {
//     auto tile = ctx.shared<float>(/*byte_offset=*/0, /*count=*/B);
//     co_await tile.store(ctx, ctx.thread_id, v);   // shared store
//     co_await ctx.sync();                          // __syncthreads()
//     float x = co_await tile.load(ctx, j);         // shared load
//     float y = co_await ctx.shfl(x, src_lane);     // __shfl_sync broadcast
//     ctx.arith(8);                                 // account 8 scalar ops
//   }
//
// Every co_await suspends the lane; the executor gathers a warp's suspended
// ops, analyzes them as one SIMT instruction, charges cycle cost, and
// resumes the lanes. Data movement happens in await_resume(), i.e. after the
// cost has been charged, which keeps functional results independent of the
// timing model.
#pragma once

#include <atomic>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/points.hpp"
#include "vgpu/op.hpp"
#include "vgpu/stats.hpp"

namespace tbs::vgpu {

class ThreadCtx;

/// Per-warp mutable state shared by the executor and the shuffle awaiters.
struct WarpState {
  double clock = 0.0;  ///< serialized warp cycles so far
  /// Shuffle staging: lane deposits at suspend; executor snapshots to
  /// `shfl_result` when the warp-wide shuffle instruction issues.
  std::uint64_t shfl_staging[32] = {};
  std::uint64_t shfl_result[32] = {};
  int cur_phase = static_cast<int>(Phase::Setup);
  double phase_start_clock = 0.0;
  double tail_arith_max = 0.0;  ///< arith of lanes that already returned
};

namespace detail {

/// Base for awaiters that park a PendingOp in the lane's slot.
struct OpAwaiterBase {
  ThreadCtx* ctx;
  PendingOp op;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) noexcept;
};

template <class T>
struct LoadAwaiter : OpAwaiterBase {
  const T* src;
  T await_resume() const noexcept { return *src; }
};

/// Loads one SoA 3-D point (x/y/z arrays) as a single logical instruction.
struct PointLoadAwaiter : OpAwaiterBase {
  const float* px;
  const float* py;
  const float* pz;
  Point3 await_resume() const noexcept { return {*px, *py, *pz}; }
};

template <class T>
struct StoreAwaiter : OpAwaiterBase {
  T* dst;
  T value;
  void await_resume() const noexcept { *dst = value; }
};

struct PointStoreAwaiter : OpAwaiterBase {
  float* px;
  float* py;
  float* pz;
  Point3 value;
  void await_resume() const noexcept {
    *px = value.x;
    *py = value.y;
    *pz = value.z;
  }
};

/// Read-modify-write add; returns the previous value (like atomicAdd).
/// Global atomics use a real CPU atomic RMW: blocks of a stream launch run
/// concurrently on the block queue and may contend on the same address.
/// Shared-memory atomics stay plain — the arena is private to the block.
template <class T>
struct AtomicAddAwaiter : OpAwaiterBase {
  T* dst;
  T value;
  T await_resume() const noexcept {
    if (op.kind == OpKind::GlobalAtomic) {
      std::atomic_ref<T> ref(*dst);
      T old = ref.load(std::memory_order_relaxed);
      while (!ref.compare_exchange_weak(old, static_cast<T>(old + value),
                                        std::memory_order_relaxed)) {
      }
      return old;
    }
    const T old = *dst;
    *dst = static_cast<T>(old + value);
    return old;
  }
};

/// Read-modify-write min (atomicMin), used by kNN-style kernels.
template <class T>
struct AtomicMinAwaiter : OpAwaiterBase {
  T* dst;
  T value;
  T await_resume() const noexcept {
    if (op.kind == OpKind::GlobalAtomic) {
      std::atomic_ref<T> ref(*dst);
      T old = ref.load(std::memory_order_relaxed);
      while (value < old && !ref.compare_exchange_weak(
                                old, value, std::memory_order_relaxed)) {
      }
      return old;
    }
    const T old = *dst;
    if (value < old) *dst = value;
    return old;
  }
};

struct BarrierAwaiter : OpAwaiterBase {
  void await_resume() const noexcept {}
};

template <class T>
struct ShflAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>,
                "shuffle payload must fit in a 64-bit register");
  ThreadCtx* ctx;
  T value;
  int src_lane;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) noexcept;
  T await_resume() const noexcept;
};

}  // namespace detail

/// Typed view over a slice of the block's shared-memory arena. All threads
/// of a block constructing a view with the same byte offset see the same
/// storage — exactly like a `__shared__` array in CUDA.
template <class T>
class SharedSpan {
 public:
  SharedSpan() = default;
  SharedSpan(T* base, std::size_t count) : base_(base), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  detail::LoadAwaiter<T> load(ThreadCtx& ctx, std::size_t i) const;
  detail::StoreAwaiter<T> store(ThreadCtx& ctx, std::size_t i, T v) const;
  detail::AtomicAddAwaiter<T> atomic_add(ThreadCtx& ctx, std::size_t i,
                                         T v) const;
  detail::AtomicMinAwaiter<T> atomic_min(ThreadCtx& ctx, std::size_t i,
                                         T v) const;

 private:
  T* base_ = nullptr;
  std::size_t count_ = 0;
};

/// Per-lane device context: thread/block ids, shared-memory arena access,
/// synchronization, shuffles and arithmetic accounting.
class ThreadCtx {
 public:
  // --- identity (mirrors threadIdx/blockIdx/blockDim/gridDim) -------------
  int thread_id = 0;  ///< within the block
  int block_id = 0;
  int block_dim = 0;
  int grid_dim = 0;
  int lane = 0;       ///< thread_id % warp_size

  [[nodiscard]] long global_thread_id() const noexcept {
    return static_cast<long>(block_id) * block_dim + thread_id;
  }

  // --- shared memory -------------------------------------------------------
  /// Typed view starting `byte_offset` into the block's shared arena.
  /// Fails if the slice exceeds the launch's dynamic shared size.
  template <class T>
  [[nodiscard]] SharedSpan<T> shared(std::size_t byte_offset,
                                     std::size_t count) const {
    check(byte_offset % alignof(T) == 0, "shared slice misaligned");
    check(byte_offset + count * sizeof(T) <= shared_size,
          "shared slice exceeds launch shared_bytes");
    return SharedSpan<T>(
        reinterpret_cast<T*>(shared_base + byte_offset), count);
  }

  // --- synchronization / shuffle -------------------------------------------
  /// __syncthreads(): blocks until every live thread of the block arrives.
  [[nodiscard]] detail::BarrierAwaiter sync() noexcept {
    detail::BarrierAwaiter aw;
    aw.ctx = this;
    aw.op.kind = OpKind::Barrier;
    return aw;
  }

  /// __shfl_sync(): returns `v` as held by `src_lane` of this warp. Every
  /// live lane of the warp must participate.
  template <class T>
  [[nodiscard]] detail::ShflAwaiter<T> shfl(T v, int src_lane) noexcept {
    return detail::ShflAwaiter<T>{this, v, src_lane & 31};
  }

  // --- accounting ------------------------------------------------------------
  /// Record `n` scalar arithmetic operations executed by this lane since the
  /// last suspension (folded into warp cycles as max-over-lanes).
  void arith(double n) noexcept { arith_ops += n; }

  /// Record `n` control-flow operations (loop bookkeeping, branches); kept
  /// separate so utilization tables can report control vs arithmetic load.
  void control(double n) noexcept { control_ops += n; }

  /// Attribute subsequent cycles of this warp to phase `p` (see Phase).
  void mark_phase(Phase p) noexcept {
    const int id = static_cast<int>(p);
    if (warp->cur_phase == id) return;
    (*phase_cycles)[warp->cur_phase] += warp->clock - warp->phase_start_clock;
    warp->cur_phase = id;
    warp->phase_start_clock = warp->clock;
  }

  // --- executor wiring (treat as private; kernels never touch these) -------
  WarpState* warp = nullptr;
  std::byte* shared_base = nullptr;
  std::size_t shared_size = 0;
  std::uintptr_t shared_arena_addr = 0;
  std::map<int, double>* phase_cycles = nullptr;
  PendingOp pending{};
  bool has_pending = false;
  double arith_ops = 0.0;
  double arith_mark = 0.0;  ///< checkpoint of arith_ops at last charge
  double control_ops = 0.0;
  double control_mark = 0.0;
};

// ---- inline implementations ------------------------------------------------

namespace detail {

inline void OpAwaiterBase::await_suspend(std::coroutine_handle<>) noexcept {
  ctx->pending = op;
  ctx->has_pending = true;
}

template <class T>
void ShflAwaiter<T>::await_suspend(std::coroutine_handle<>) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(T));
  ctx->warp->shfl_staging[ctx->lane & 31] = bits;
  ctx->pending.kind = OpKind::Shuffle;
  ctx->pending.n_addr = 0;
  ctx->pending.elem_bytes = sizeof(T);
  ctx->pending.shuffle_src = src_lane;
  ctx->has_pending = true;
}

template <class T>
T ShflAwaiter<T>::await_resume() const noexcept {
  const std::uint64_t bits = ctx->warp->shfl_result[src_lane & 31];
  T out;
  std::memcpy(&out, &bits, sizeof(T));
  return out;
}

}  // namespace detail

template <class T>
detail::LoadAwaiter<T> SharedSpan<T>::load(ThreadCtx& ctx,
                                           std::size_t i) const {
  detail::LoadAwaiter<T> aw;
  aw.ctx = &ctx;
  aw.op.kind = OpKind::SharedLoad;
  aw.op.n_addr = 1;
  aw.op.elem_bytes = sizeof(T);
  aw.op.addr[0] = reinterpret_cast<std::uintptr_t>(base_ + i);
  aw.src = base_ + i;
  return aw;
}

template <class T>
detail::StoreAwaiter<T> SharedSpan<T>::store(ThreadCtx& ctx, std::size_t i,
                                             T v) const {
  detail::StoreAwaiter<T> aw;
  aw.ctx = &ctx;
  aw.op.kind = OpKind::SharedStore;
  aw.op.n_addr = 1;
  aw.op.elem_bytes = sizeof(T);
  aw.op.addr[0] = reinterpret_cast<std::uintptr_t>(base_ + i);
  aw.dst = base_ + i;
  aw.value = v;
  return aw;
}

template <class T>
detail::AtomicAddAwaiter<T> SharedSpan<T>::atomic_add(ThreadCtx& ctx,
                                                      std::size_t i,
                                                      T v) const {
  detail::AtomicAddAwaiter<T> aw;
  aw.ctx = &ctx;
  aw.op.kind = OpKind::SharedAtomic;
  aw.op.n_addr = 1;
  aw.op.elem_bytes = sizeof(T);
  aw.op.addr[0] = reinterpret_cast<std::uintptr_t>(base_ + i);
  aw.dst = base_ + i;
  aw.value = v;
  return aw;
}

template <class T>
detail::AtomicMinAwaiter<T> SharedSpan<T>::atomic_min(ThreadCtx& ctx,
                                                      std::size_t i,
                                                      T v) const {
  detail::AtomicMinAwaiter<T> aw;
  aw.ctx = &ctx;
  aw.op.kind = OpKind::SharedAtomic;
  aw.op.n_addr = 1;
  aw.op.elem_bytes = sizeof(T);
  aw.op.addr[0] = reinterpret_cast<std::uintptr_t>(base_ + i);
  aw.dst = base_ + i;
  aw.value = v;
  return aw;
}

}  // namespace tbs::vgpu
