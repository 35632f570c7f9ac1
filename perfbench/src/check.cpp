#include "check.hpp"

#include <algorithm>

#include "cpubase/cpu_stats.hpp"

namespace perfbench {

namespace serve = tbs::serve;

namespace {

std::vector<std::pair<std::uint32_t, std::uint32_t>> normalized(
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs) {
  for (auto& [i, j] : pairs)
    if (i > j) std::swap(i, j);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace

const Checker::Reference& Checker::reference(const serve::Query& query,
                                             std::size_t dataset,
                                             const tbs::PointsSoA& pts) {
  const std::string key = serve::query_key(query, dataset);
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  Reference ref = std::visit(
      [&](const auto& q) -> Reference {
        using Q = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<Q, serve::SdhQuery>) {
          const tbs::Histogram h = tbs::cpubase::cpu_sdh_tiled(
              pool_, pts, q.bucket_width, static_cast<std::size_t>(q.buckets));
          return std::vector<std::uint64_t>(h.counts().begin(),
                                            h.counts().end());
        } else if constexpr (std::is_same_v<Q, serve::PcfQuery>) {
          return tbs::cpubase::cpu_pcf_tiled(pool_, pts, q.radius);
        } else if constexpr (std::is_same_v<Q, serve::KnnQuery>) {
          // cpu_knn returns rows that keep an n-float capacity; copy them
          // compact before memoizing, or n references would hold n^2 floats.
          std::vector<std::vector<float>> rows;
          for (const auto& row : tbs::cpubase::cpu_knn(pool_, pts, q.k))
            rows.emplace_back(row.begin(), row.end());
          return rows;
        } else {
          return normalized(
              tbs::cpubase::cpu_distance_join(pool_, pts, q.radius));
        }
      },
      query);
  return memo_.emplace(key, std::move(ref)).first->second;
}

bool Checker::matches(const serve::Query& query, std::size_t dataset,
                      const tbs::PointsSoA& pts,
                      const serve::QueryResult& got) {
  if (got.index() != query.index()) return false;
  const Reference& ref = reference(query, dataset, pts);
  if (const auto* r = std::get_if<tbs::kernels::SdhResult>(&got)) {
    const auto& want = std::get<std::vector<std::uint64_t>>(ref);
    const auto counts = r->hist.counts();
    return std::equal(counts.begin(), counts.end(), want.begin(), want.end());
  }
  if (const auto* r = std::get_if<tbs::kernels::PcfResult>(&got))
    return r->pairs_within == std::get<std::uint64_t>(ref);
  if (const auto* r = std::get_if<tbs::kernels::KnnResult>(&got))
    return r->neighbours == std::get<std::vector<std::vector<float>>>(ref);
  const auto& r = std::get<tbs::kernels::JoinResult>(got);
  return normalized(r.pairs) == std::get<Pairs>(ref);
}

}  // namespace perfbench
