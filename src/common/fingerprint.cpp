#include "common/fingerprint.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

namespace tbs {

namespace {

/// Canonical bit pattern: +0.0 for either zero, one quiet NaN for every
/// NaN payload, the value's own bits otherwise.
std::uint64_t canonical_bits(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 == 0.0, so both take the +0.0 pattern
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::uint32_t canonical_bits(float v) {
  if (v == 0.0f) v = 0.0f;
  if (std::isnan(v)) v = std::numeric_limits<float>::quiet_NaN();
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

std::uint64_t dataset_fingerprint(const PointsSoA& pts) {
  Fnv1a h;
  h.u64(pts.size());
  h.floats(pts.x());
  h.floats(pts.y());
  h.floats(pts.z());
  return h.value();
}

std::uint64_t shard_fingerprint(const PointsSoA& shard_pts,
                                std::size_t shard_index,
                                std::size_t shard_count) {
  Fnv1a h;
  h.u64(shard_index);
  h.u64(shard_count);
  h.u64(dataset_fingerprint(shard_pts));
  return h.value();
}

std::uint64_t checksum(std::span<const double> v) {
  Fnv1a h;
  h.u64(v.size());
  for (const double d : v) h.u64(canonical_bits(d));
  return h.value();
}

std::uint64_t checksum(std::span<const float> v) {
  Fnv1a h;
  h.u64(v.size());
  for (const float f : v) {
    const std::uint32_t bits = canonical_bits(f);
    h.bytes(&bits, sizeof bits);
  }
  return h.value();
}

void append_exact(std::string& key, double v) {
  char buf[32];  // the shortest round-trip form of a double is <= 24 chars
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  key.append(buf, r.ptr);
}

}  // namespace tbs
