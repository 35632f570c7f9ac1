// Set-associative cache simulator used for the L2 and read-only data caches.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace tbs::vgpu {

/// LRU set-associative cache over byte addresses. Functional only: tracks
/// presence of cache lines, not their contents (data always lives in host
/// memory; the cache decides which latency/traffic bucket an access hits).
class SetAssocCache {
 public:
  /// Build a cache of `size_bytes` capacity with `ways` lines per set and
  /// `line_bytes` line size. Set count is rounded down to a power of two.
  SetAssocCache(std::size_t size_bytes, int ways, std::size_t line_bytes) {
    reset(size_bytes, ways, line_bytes);
  }

  /// Empty the cache and give it this geometry, reusing its storage when
  /// that is large enough (counters are preserved).
  void reset(std::size_t size_bytes, int ways, std::size_t line_bytes) {
    check(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
          "cache line size must be a power of two");
    check(ways > 0, "cache needs at least one way");
    line_bytes_ = line_bytes;
    ways_ = ways;
    std::size_t sets = size_bytes / (static_cast<std::size_t>(ways) *
                                     line_bytes);
    if (sets == 0) sets = 1;
    while (sets & (sets - 1)) sets &= sets - 1;  // round down to pow2
    set_mask_ = sets - 1;
    lines_.assign(sets * static_cast<std::size_t>(ways), kInvalid);
    stamp_.assign(lines_.size(), 0);
  }

  /// Probe (and on miss, fill) the line containing `addr`.
  /// Returns true on hit.
  bool access(std::uintptr_t addr) {
    const std::uint64_t tag = addr / line_bytes_;
    const std::size_t set = static_cast<std::size_t>(tag) & set_mask_;
    const std::size_t base = set * static_cast<std::size_t>(ways_);
    ++tick_;
    std::size_t victim = base;
    std::uint64_t oldest = stamp_[base];
    for (int w = 0; w < ways_; ++w) {
      const std::size_t idx = base + static_cast<std::size_t>(w);
      if (lines_[idx] == tag) {
        stamp_[idx] = tick_;
        ++hits_;
        return true;
      }
      if (stamp_[idx] < oldest) {
        oldest = stamp_[idx];
        victim = idx;
      }
    }
    lines_[victim] = tag;
    stamp_[victim] = tick_;
    ++misses_;
    return false;
  }

  /// Forget all cached lines (counters are preserved).
  void invalidate() {
    std::fill(lines_.begin(), lines_.end(), kInvalid);
    std::fill(stamp_.begin(), stamp_.end(), std::uint64_t{0});
  }

  [[nodiscard]] std::size_t line_bytes() const noexcept { return line_bytes_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  std::size_t line_bytes_ = 0;
  int ways_ = 0;
  std::size_t set_mask_ = 0;
  std::vector<std::uint64_t> lines_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tbs::vgpu
