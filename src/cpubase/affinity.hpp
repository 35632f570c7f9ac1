// Thread-affinity policies, mirroring the Intel/OpenMP affinity types the
// paper's CPU baseline tunes (scatter / compact / balanced). No pool
// applies them: CPU pools run unpinned (see CpuConfig in cpu_stats.hpp).
#pragma once

#include <vector>

namespace tbs::cpubase {

enum class Affinity {
  None,      ///< leave placement to the OS scheduler
  Scatter,   ///< spread threads across cores round-robin
  Compact,   ///< pack threads onto consecutive cores
  Balanced,  ///< evenly partition cores, keeping neighbours close
};

const char* to_string(Affinity a);

/// Compute the core each of `threads` workers should pin to, given `cores`
/// available cores. Pure function so the mapping itself is unit-testable.
std::vector<int> affinity_map(Affinity policy, unsigned threads,
                              unsigned cores);

/// Pin the calling thread to `core` (Linux; no-op elsewhere or on failure).
void pin_current_thread(int core);

}  // namespace tbs::cpubase
