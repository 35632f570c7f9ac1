// obs::observe_launches — the one launch hook: every launch of the device
// bumps the counter and, while tracing, leaves one vgpu.launch span in the
// issuing thread's trace.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/datagen.hpp"
#include "kernels/pcf.hpp"
#include "kernels/sdh.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "vgpu/device.hpp"
#include "vgpu/stream.hpp"

namespace tbs::obs {
namespace {

constexpr int kBuckets = 16;

/// Two SDH launches and one PCF launch, inline and pooled.
void launch_some(vgpu::Device& dev, const PointsSoA& pts) {
  vgpu::Stream stream(dev);
  const double width = pts.max_possible_distance() / kBuckets + 1e-4;
  (void)kernels::run_sdh(dev, pts, width, kBuckets,
                         kernels::SdhVariant::RegShmOut, 64);
  (void)kernels::run_sdh(stream, pts, width, kBuckets,
                         kernels::SdhVariant::RegRocOut, 64);
  (void)kernels::run_pcf(stream, pts, 1.5, kernels::PcfVariant::RegShm, 64);
}

std::vector<SpanRecord> launch_spans(const Tracer& tracer) {
  std::vector<SpanRecord> out;
  for (SpanRecord& s : tracer.snapshot())
    if (s.name == "vgpu.launch") out.push_back(std::move(s));
  return out;
}

TEST(ObserveLaunches, CountsEveryLaunchOfTheDevice) {
  Tracer tracer;  // disabled: counting only
  MetricsRegistry reg;
  vgpu::Device dev;  // declared last: its hook refers to both above
  Counter& launches = reg.counter("vgpu.launches");
  observe_launches(dev, tracer, launches);

  launch_some(dev, uniform_box(300, 10.0f, 5));
  EXPECT_GE(dev.launch_count(), 3u);
  EXPECT_EQ(launches.value(), dev.launch_count());
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(ObserveLaunches, TracesOneSpanPerLaunchWithItsShape) {
  Tracer tracer;
  tracer.enable();
  MetricsRegistry reg;
  vgpu::Device dev;
  observe_launches(dev, tracer, reg.counter("vgpu.launches"));

  launch_some(dev, uniform_box(300, 10.0f, 6));
  const std::vector<SpanRecord> spans = launch_spans(tracer);
  ASSERT_EQ(spans.size(), dev.launch_count());
  std::map<std::string, int> pooled;
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.cat, "vgpu");
    std::map<std::string, std::string> attrs(s.attrs.begin(), s.attrs.end());
    ASSERT_EQ(attrs.size(), 4u);
    EXPECT_GT(std::stoi(attrs.at("grid")), 0);
    EXPECT_EQ(attrs.at("block"), "64");
    EXPECT_GT(std::stod(attrs.at("warp_cycles")), 0.0);
    ++pooled[attrs.at("pooled")];
  }
  EXPECT_GT(pooled["true"], 0);   // the stream launches
  EXPECT_GT(pooled["false"], 0);  // the inline one
  EXPECT_EQ(pooled.size(), 2u);
}

TEST(ObserveLaunches, LaunchJoinsTheIssuingThreadsTrace) {
  Tracer tracer;
  tracer.enable();
  MetricsRegistry reg;
  vgpu::Device dev;
  observe_launches(dev, tracer, reg.counter("vgpu.launches"));

  const PointsSoA pts = uniform_box(200, 10.0f, 7);
  const TraceContext ctx{Tracer::mint_trace_id(), Tracer::mint_trace_id()};
  {
    const ScopedTraceContext scope(ctx);
    launch_some(dev, pts);
  }
  const std::uint64_t in_scope = dev.launch_count();
  launch_some(dev, pts);  // no context: the spans belong to no trace

  const std::vector<SpanRecord> spans = launch_spans(tracer);
  ASSERT_EQ(spans.size(), dev.launch_count());
  std::uint64_t joined = 0;
  for (const SpanRecord& s : spans) {
    if (s.trace_id == 0) continue;
    EXPECT_EQ(s.trace_id, ctx.trace_id);
    EXPECT_EQ(s.parent_id, ctx.span_id);
    EXPECT_NE(s.span_id, 0u);
    ++joined;
  }
  EXPECT_EQ(joined, in_scope);
}

}  // namespace
}  // namespace tbs::obs
