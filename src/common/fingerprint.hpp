// Content fingerprints — FNV-1a over raw coordinate bytes.
//
// One hash family identifies datasets everywhere: the serve layer's result
// cache and coalescing key (serve::query_key folds in dataset_fingerprint),
// and the shard subsystem's staged-data identity (shard_fingerprint keys
// which lane already holds which shard). The accumulator is exposed so a
// consumer can fingerprint streamed data — feeding the whole dataset
// through one Fnv1a in dataset_fingerprint's field order reproduces
// dataset_fingerprint exactly, which is what keeps sharded and unsharded
// submissions of the same points on the same cache entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/points.hpp"

namespace tbs {

/// Incremental FNV-1a (64-bit). Byte-order sensitive: two accumulators fed
/// the same bytes in the same order agree, any reordering diverges.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
  }

  void floats(std::span<const float> v) { bytes(v.data(), v.size_bytes()); }

  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kOffset;
};

/// FNV-1a over the point count and the three coordinate lanes (n, x[],
/// y[], z[]). Identifies a dataset by content: equal point sets hash equal
/// regardless of which container owns them.
std::uint64_t dataset_fingerprint(const PointsSoA& pts);

/// Fingerprint of one shard of a partitioned dataset: the shard's own
/// content fingerprint folded with its position and the partition arity.
/// Two shards collide only if they hold the same points at the same index
/// of an equal-K partition — so a lane's staged-data table can key on this
/// alone, and re-partitioning (different K or strategy) never aliases a
/// stale staging entry.
std::uint64_t shard_fingerprint(const PointsSoA& shard_pts,
                                std::size_t shard_index,
                                std::size_t shard_count);

/// Value checksum over a numeric span — FNV-1a over *canonicalized* bit
/// patterns: -0.0 hashes like +0.0 and every NaN hashes like one quiet
/// NaN, so the checksum identifies the numeric payload rather than the
/// exact encoding. Used by the serve integrity layer to verify a staged
/// buffer survived the round trip bit-meaningfully intact.
std::uint64_t checksum(std::span<const double> v);
std::uint64_t checksum(std::span<const float> v);

/// Append `v` to a cache key in the shortest decimal form that reads back
/// as exactly `v`, so two keys agree only when every double in them does
/// (six fixed decimals would let radii 1.0000001 and 1.0000004 share a key,
/// and so an answer).
void append_exact(std::string& key, double v);

}  // namespace tbs
