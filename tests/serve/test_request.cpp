// Dataset fingerprints and query keys: equal content hashes equal, any
// perturbation (data, parameters, kind) separates keys.
#include <gtest/gtest.h>

#include "common/datagen.hpp"
#include "common/fingerprint.hpp"
#include "serve/request.hpp"

namespace tbs::serve {
namespace {

TEST(DatasetFingerprint, EqualContentHashesEqualAcrossContainers) {
  const auto a = uniform_box(500, 10.0f, 42);
  PointsSoA b;  // same points, rebuilt element by element
  for (std::size_t i = 0; i < a.size(); ++i) b.push_back(a[i]);
  EXPECT_EQ(dataset_fingerprint(a), dataset_fingerprint(b));
}

TEST(DatasetFingerprint, PerturbingOneCoordinateChangesTheHash) {
  const auto a = uniform_box(500, 10.0f, 42);
  auto b = a;
  auto p = b[250];
  p.x += 0.25f;
  b.set(250, p);
  EXPECT_NE(dataset_fingerprint(a), dataset_fingerprint(b));
}

TEST(DatasetFingerprint, DifferentSizesDiffer) {
  auto a = uniform_box(500, 10.0f, 42);
  auto b = a;
  b.resize(499);
  EXPECT_NE(dataset_fingerprint(a), dataset_fingerprint(b));
}

TEST(QueryKey, SeparatesKindsParametersAndDatasets) {
  const std::uint64_t fp = 12345, fp2 = 54321;

  const std::string sdh_key = query_key(SdhQuery{0.5, 64}, fp);
  EXPECT_EQ(sdh_key, query_key(SdhQuery{0.5, 64}, fp));
  EXPECT_NE(sdh_key, query_key(SdhQuery{0.5, 128}, fp));
  EXPECT_NE(sdh_key, query_key(SdhQuery{0.25, 64}, fp));
  EXPECT_NE(sdh_key, query_key(SdhQuery{0.5, 64}, fp2));
  EXPECT_NE(sdh_key, query_key(PcfQuery{0.5}, fp));

  EXPECT_NE(query_key(PcfQuery{2.0}, fp), query_key(PcfQuery{1.0}, fp));
  EXPECT_NE(query_key(KnnQuery{4}, fp), query_key(KnnQuery{5}, fp));
  EXPECT_NE(
      query_key(JoinQuery{2.0, kernels::JoinVariant::TwoPhase}, fp),
      query_key(JoinQuery{2.0, kernels::JoinVariant::GlobalCursor}, fp));
}

TEST(QueryKey, KindNamesMatchTheVariantAlternatives) {
  EXPECT_STREQ(kind_name(SdhQuery{}), "sdh");
  EXPECT_STREQ(kind_name(PcfQuery{}), "pcf");
  EXPECT_STREQ(kind_name(KnnQuery{}), "knn");
  EXPECT_STREQ(kind_name(JoinQuery{}), "join");
}

}  // namespace
}  // namespace tbs::serve
