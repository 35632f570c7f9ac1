// Tests of the benchmark's own measurement helpers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, RefusesTailWithFewerThanTenSamplesBeyond) {
  EXPECT_THROW(percentile(ramp(99), 0.9), std::domain_error);  // 9 beyond
  EXPECT_NO_THROW(percentile(ramp(100), 0.9));                // 10 beyond
  EXPECT_THROW(percentile(ramp(999), 0.99), std::domain_error);
  EXPECT_NO_THROW(percentile(ramp(1000), 0.99));
}

TEST(Percentile, MedianNeedsOnlyOneSample) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 4.0, 2.0, 3.0}, 0.5), 2.5);
  EXPECT_THROW(percentile({}, 0.5), std::domain_error);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile(ramp(101), 0.9), 90.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(201), 0.9), 180.0);
}

TEST(Tally, WrongAnswersCountAsFailures) {
  Tally t;
  t.submitted = 200;
  t.wrong = 3;
  EXPECT_EQ(t.failures(), 3u);
  EXPECT_DOUBLE_EQ(t.error_rate(), 3.0 / 200.0);
  t.failed = 1;
  t.rejected = 2;
  EXPECT_DOUBLE_EQ(t.error_rate(), 6.0 / 200.0);
  EXPECT_DOUBLE_EQ(Tally{}.error_rate(), 0.0);
}

Span span(std::uint32_t id, std::uint32_t parent, double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, OverlappingChildrenAreSubtractedOnce) {
  // Two parallel lanes under one run: [1, 4] and [3, 6] cover 5 of 10.
  const std::vector<Span> spans{span(1, 0, 0, 10), span(2, 1, 1, 4),
                                span(3, 1, 3, 6)};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
}

TEST(SelfTime, OnlyDirectChildrenCountAndAreClippedToTheParent) {
  // Grandchild [2, 3] is inside child [1, 5]; it must not be subtracted
  // from the root again. Child [8, 12] sticks out of the root [0, 10].
  const std::vector<Span> spans{span(1, 0, 0, 10), span(2, 1, 1, 5),
                                span(3, 2, 2, 3), span(4, 1, 8, 12)};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
}

TEST(SpanLog, ReservedIdsAreUniqueAcrossRecordedSpans) {
  SpanLog log;
  const std::uint32_t parent = log.reserve();
  Span child;
  child.parent = parent;
  log.record(child);
  Span p;
  p.id = parent;
  log.record(p);
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].id, spans[1].id);
  EXPECT_EQ(spans[0].parent, spans[1].id);
}

}  // namespace
}  // namespace perfbench
