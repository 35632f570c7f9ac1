// The answer check: every timed answer is compared with a cpubase
// reference computed after the timed phase. Histograms and counts must be
// bit-exact, kNN distance lists equal, and join pair sets equal as sets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/points.hpp"
#include "cpubase/thread_pool.hpp"
#include "serve/request.hpp"

namespace perfbench {

class Checker {
 public:
  explicit Checker(unsigned threads) : pool_(threads) {}

  /// True when `got` equals the reference answer of `query` on `pts`.
  /// References are memoized per (dataset, query), so a repeated query is
  /// computed once.
  bool matches(const tbs::serve::Query& query, std::size_t dataset,
               const tbs::PointsSoA& pts, const tbs::serve::QueryResult& got);

 private:
  using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  using Reference = std::variant<std::vector<std::uint64_t>, std::uint64_t,
                                 std::vector<std::vector<float>>, Pairs>;

  const Reference& reference(const tbs::serve::Query& query,
                             std::size_t dataset, const tbs::PointsSoA& pts);

  tbs::cpubase::ThreadPool pool_;
  std::map<std::string, Reference> memo_;
};

}  // namespace perfbench
