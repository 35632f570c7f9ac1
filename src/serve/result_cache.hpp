// Cost-aware result cache fronting the query engine.
//
// Keyed by query_key() — (problem descriptor, dataset fingerprint) — so a
// repeated query shape over the same data is served without touching a
// device. Values are full QueryResults (histogram / counts / pairs plus the
// execution counters of the run that produced them), so a hit is
// indistinguishable from a fresh execution to the client. Thread-safe; the
// engine's workers store from several threads while clients look up.
//
// Eviction is GreedyDual (Young 1994; Cao & Irani 1997): every store and
// every hit sets an entry's priority to L + c, where c is what the entry
// costs to recompute and L is a floor that rises to the priority of each
// entry evicted. The lowest priority goes first, the least recently used
// among equals — so with equal costs (or none given) the order is plain
// LRU. The trade: an expensive answer that is never asked for again
// outlives cheap one-offs until L passes its priority, i.e. for about its
// cost ratio's worth of cheap misses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "serve/request.hpp"

namespace tbs::serve {

class ResultCache {
 public:
  /// capacity == 0 disables the cache (find always misses, store drops).
  explicit ResultCache(std::size_t capacity) : cap_(capacity) {}

  /// Look up a key; a hit bumps the entry to most-recently-used and renews
  /// its priority.
  [[nodiscard]] std::optional<QueryResult> find(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    Entry& e = *it->second;
    saved_seconds_ += e.cost;
    e.priority = floor_ + e.cost;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump recency
    return e.value;
  }

  /// Insert (or refresh) a key. When the cache is full, the entry with the
  /// lowest priority is evicted first. `provenance` names the backend that
  /// produced the value — the handle invalidate_by_provenance() uses to
  /// purge every entry a backend wrote once an audit catches it corrupting
  /// results. `cost_seconds` is what the value took to produce, i.e. what
  /// a later miss would pay again.
  void store(const std::string& key, QueryResult value,
             std::string provenance = {}, double cost_seconds = 0.0) {
    if (cap_ == 0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      Entry& e = *it->second;
      e.value = std::move(value);
      e.provenance = std::move(provenance);
      e.cost = cost_seconds;
      e.priority = floor_ + cost_seconds;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() == cap_) evict_one();
    lru_.emplace_front(Entry{key, std::move(value), std::move(provenance),
                             cost_seconds, floor_ + cost_seconds});
    index_[key] = lru_.begin();
  }

  /// Drop every entry whose provenance tag matches. Returns the number of
  /// entries removed (also accumulated in invalidations()).
  std::size_t invalidate_by_provenance(const std::string& provenance) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t removed = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->provenance == provenance) {
        index_.erase(it->key);
        it = lru_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    invalidations_ += removed;
    return removed;
  }

  [[nodiscard]] std::uint64_t hits() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  [[nodiscard]] std::uint64_t evictions() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }
  /// Entries purged by invalidate_by_provenance() so far.
  [[nodiscard]] std::uint64_t invalidations() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return invalidations_;
  }
  /// Summed cost of the entries that answered hits: the recompute time
  /// the cache saved.
  [[nodiscard]] double saved_seconds() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return saved_seconds_;
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

 private:
  struct Entry {
    std::string key;
    QueryResult value;
    std::string provenance;  ///< backend that produced the value
    double cost;             ///< seconds to recompute the value
    double priority;         ///< floor at the last touch + cost
  };

  /// Evict the lowest-priority entry, scanning from the least recently
  /// used end so the oldest wins a tie, and raise the floor to it. A scan
  /// of `cap_` entries runs only when a miss fills a full cache, next to
  /// the miss's own execution.
  void evict_one() {
    auto victim = std::prev(lru_.end());
    for (auto it = victim; it != lru_.begin();) {
      --it;
      if (it->priority < victim->priority) victim = it;
    }
    floor_ = victim->priority;
    index_.erase(victim->key);
    lru_.erase(victim);
    ++evictions_;
  }

  mutable std::mutex mu_;
  std::size_t cap_;
  /// front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  double floor_ = 0.0;  ///< L: priority of the last entry evicted
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
  double saved_seconds_ = 0.0;
};

}  // namespace tbs::serve
