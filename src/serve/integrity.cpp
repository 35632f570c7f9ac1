#include "serve/integrity.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace tbs::serve {

void verify_result(const Query& q, const PointsSoA& pts, const QueryResult& r,
                   const char* where) {
  if (!integrity_enabled()) return;
  const std::size_t n = pts.size();
  const std::uint64_t all_pairs = expected_diagonal_pairs(n);

  if (const auto* sq = std::get_if<SdhQuery>(&q)) {
    const auto* sr = std::get_if<kernels::SdhResult>(&r);
    if (sr == nullptr)
      throw IntegrityError(std::string(where) + ": sdh query yielded a "
                           "result of the wrong kind");
    if (sr->hist.bucket_count() != static_cast<std::size_t>(sq->buckets))
      throw IntegrityError(std::string(where) +
                           ": sdh histogram bucket count mismatch");
    verify_histogram(sr->hist, all_pairs, where);
    return;
  }
  if (std::holds_alternative<PcfQuery>(q)) {
    const auto* pr = std::get_if<kernels::PcfResult>(&r);
    if (pr == nullptr)
      throw IntegrityError(std::string(where) + ": pcf query yielded a "
                           "result of the wrong kind");
    verify_pair_count(pr->pairs_within, all_pairs, where);
    return;
  }
  if (const auto* kq = std::get_if<KnnQuery>(&q)) {
    const auto* kr = std::get_if<kernels::KnnResult>(&r);
    if (kr == nullptr)
      throw IntegrityError(std::string(where) + ": knn query yielded a "
                           "result of the wrong kind");
    if (kr->neighbours.size() != n)
      throw IntegrityError(std::string(where) +
                           ": knn neighbour list count != point count");
    // Every kNN kernel requires n > k and returns k distances per point.
    const auto k = static_cast<std::size_t>(kq->k);
    for (const std::vector<float>& row : kr->neighbours) {
      if (row.size() != k)
        throw IntegrityError(std::string(where) +
                             ": knn row length != k");
      for (std::size_t j = 1; j < row.size(); ++j)
        if (row[j] < row[j - 1])
          throw IntegrityError(std::string(where) +
                               ": knn row is not in ascending order");
    }
    return;
  }
  if (const auto* jq = std::get_if<JoinQuery>(&q)) {
    const auto* jr = std::get_if<kernels::JoinResult>(&r);
    if (jr == nullptr)
      throw IntegrityError(std::string(where) + ": join query yielded a "
                           "result of the wrong kind");
    if (jr->pairs.size() > all_pairs)
      throw IntegrityError(std::string(where) +
                           ": join emitted more pairs than exist");
    const auto r2 = static_cast<float>(jq->radius * jq->radius);
    for (const auto& [i, j] : jr->pairs) {
      if (i >= j || j >= n)
        throw IntegrityError(std::string(where) +
                             ": join pair indices out of range");
      if (!(dist2(pts[i], pts[j]) < r2))
        throw IntegrityError(std::string(where) +
                             ": join pair is not within the radius");
    }
    return;
  }
}

bool results_bit_identical(const QueryResult& a, const QueryResult& b) {
  if (a.index() != b.index()) return false;
  if (const auto* sa = std::get_if<kernels::SdhResult>(&a)) {
    const auto& sb = std::get<kernels::SdhResult>(b);
    return sa->hist == sb.hist;
  }
  if (const auto* pa = std::get_if<kernels::PcfResult>(&a)) {
    const auto& pb = std::get<kernels::PcfResult>(b);
    return pa->pairs_within == pb.pairs_within;
  }
  if (const auto* ka = std::get_if<kernels::KnnResult>(&a)) {
    const auto& kb = std::get<kernels::KnnResult>(b);
    return ka->neighbours == kb.neighbours;
  }
  const auto& ja = std::get<kernels::JoinResult>(a);
  const auto& jb = std::get<kernels::JoinResult>(b);
  auto pa = ja.pairs;
  auto pb = jb.pairs;
  std::sort(pa.begin(), pa.end());
  std::sort(pb.begin(), pb.end());
  return pa == pb;
}

}  // namespace tbs::serve
