// Typed 2-BS query descriptors and the cache/coalescing key they map to.
//
// A query is (shape, dataset): the shape is one of the typed structs below,
// the dataset is identified by a cheap content fingerprint rather than by
// pointer — two clients submitting equal point sets coalesce onto one
// execution and share one cache entry, which is the property the serve
// layer's result cache and shape-coalescing are keyed on.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/points.hpp"
#include "kernels/pcf.hpp"
#include "kernels/registry.hpp"
#include "kernels/sdh.hpp"
#include "kernels/type1.hpp"
#include "kernels/type3.hpp"

namespace tbs::serve {

/// Spatial distance histogram (Type-II).
struct SdhQuery {
  double bucket_width = 1.0;
  int buckets = 1;
};

/// 2-point correlation function (Type-I).
struct PcfQuery {
  double radius = 1.0;
};

/// All-point kNN distances (Type-I); k <= kernels::kMaxKnnK.
struct KnnQuery {
  int k = 1;
};

/// Distance join (Type-III).
struct JoinQuery {
  double radius = 1.0;
  kernels::JoinVariant variant = kernels::JoinVariant::TwoPhase;
};

using Query = std::variant<SdhQuery, PcfQuery, KnnQuery, JoinQuery>;

/// What a completed query yields; the alternative matches the Query kind.
using QueryResult = std::variant<kernels::SdhResult, kernels::PcfResult,
                                 kernels::KnnResult, kernels::JoinResult>;

/// Short kind tag ("sdh", "pcf", "knn", "join") for keys and dashboards.
const char* kind_name(const Query& q);

/// How a query maps onto the kernel registry: the problem it computes and
/// the variant it launches unless the planner or the backend picks another
/// (the join query's own output strategy; null means the registry
/// baseline).
struct Problem {
  kernels::ProblemDesc desc;
  const kernels::KernelVariant* variant = nullptr;
};
Problem problem_of(const Query& q);

/// Reset `r` to an empty result of the query's kind and return registry
/// output sinks aimed at its payload (valid until `r` is moved or
/// reassigned).
kernels::KernelOutput output_sinks(const Query& q, QueryResult& r);

/// The coalescing / result-cache key: kind, exact parameters (each double
/// in a form that reads back as the same double), dataset fingerprint
/// (tbs::dataset_fingerprint, the FNV-1a shared with the shard subsystem,
/// so a sharded execution lands on the same cache entry as an unsharded
/// one). Equal keys mean "the same computation" — the engine runs
/// one of them and fans the result out.
std::string query_key(const Query& q, std::uint64_t dataset_fp);

}  // namespace tbs::serve
