#include "serve/request.hpp"

#include "common/fingerprint.hpp"

namespace tbs::serve {

const char* kind_name(const Query& q) {
  switch (q.index()) {
    case 0: return "sdh";
    case 1: return "pcf";
    case 2: return "knn";
    case 3: return "join";
  }
  return "?";
}

Problem problem_of(const Query& q) {
  using kernels::ProblemDesc;
  if (const auto* s = std::get_if<SdhQuery>(&q))
    return {ProblemDesc::sdh(s->bucket_width, s->buckets)};
  if (const auto* p = std::get_if<PcfQuery>(&q))
    return {ProblemDesc::pcf(p->radius)};
  if (const auto* k = std::get_if<KnnQuery>(&q))
    return {ProblemDesc::knn(k->k)};
  const auto& j = std::get<JoinQuery>(q);
  return {ProblemDesc::join(j.radius),
          kernels::KernelRegistry::instance().find_by_id(
              kernels::ProblemType::Join, static_cast<int>(j.variant))};
}

kernels::KernelOutput output_sinks(const Query& q, QueryResult& r) {
  kernels::KernelOutput out;
  switch (q.index()) {
    case 0: out.hist = &r.emplace<kernels::SdhResult>().hist; break;
    case 1: out.pairs = &r.emplace<kernels::PcfResult>().pairs_within; break;
    case 2: out.neighbours = &r.emplace<kernels::KnnResult>().neighbours; break;
    default: out.join_pairs = &r.emplace<kernels::JoinResult>().pairs; break;
  }
  return out;
}

std::string query_key(const Query& q, std::uint64_t dataset_fp) {
  std::string key = kind_name(q);
  key += '|';
  std::visit(
      [&key](const auto& query) {
        using Q = std::decay_t<decltype(query)>;
        if constexpr (std::is_same_v<Q, SdhQuery>) {
          append_exact(key, query.bucket_width);
          key += '|';
          key += std::to_string(query.buckets);
        } else if constexpr (std::is_same_v<Q, PcfQuery>) {
          append_exact(key, query.radius);
        } else if constexpr (std::is_same_v<Q, KnnQuery>) {
          key += std::to_string(query.k);
        } else if constexpr (std::is_same_v<Q, JoinQuery>) {
          append_exact(key, query.radius);
          key += '|';
          key += kernels::to_string(query.variant);
        }
      },
      q);
  key += "|fp";
  key += std::to_string(dataset_fp);
  return key;
}

}  // namespace tbs::serve
