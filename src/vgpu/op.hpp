// Pending-operation descriptors exchanged between kernel coroutines and the
// warp scheduler.
//
// A kernel coroutine suspends at every memory access / barrier / shuffle and
// leaves one of these in its ThreadCtx slot; the executor gathers the 32
// descriptors of a warp, analyzes them as a single SIMT instruction
// (coalescing, bank conflicts, atomic collisions) and charges cycle cost
// before resuming the lanes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace tbs::vgpu {

/// Kind of suspended operation.
enum class OpKind : std::uint8_t {
  None = 0,
  GlobalLoad,
  GlobalStore,
  GlobalAtomic,
  RocLoad,       ///< load through the read-only data cache path
  SharedLoad,
  SharedStore,
  SharedAtomic,
  Shuffle,
  Barrier,
};

/// One lane's suspended operation. Up to three addresses so that a 3-D point
/// (SoA x/y/z) can be fetched as one logical instruction.
struct PendingOp {
  OpKind kind = OpKind::None;
  std::uint8_t n_addr = 0;
  std::uint16_t elem_bytes = 0;            ///< bytes per address
  std::array<std::uintptr_t, 3> addr{};    ///< byte addresses
  int shuffle_src = 0;                     ///< source lane for Shuffle
};

}  // namespace tbs::vgpu
