#include "core/framework.hpp"

#include <utility>

namespace tbs::core {

TwoBodyFramework::TwoBodyFramework(vgpu::DeviceSpec spec)
    : dev_(std::move(spec)) {}

vgpu::KernelStats TwoBodyFramework::run(
    const PointsSoA& pts, const kernels::ProblemDesc& desc,
    kernels::KernelOutput& out, int block_size,
    const kernels::KernelVariant* preferred) {
  Choice c = choose(be_, pts, desc, preferred, block_size, kPlanThreshold,
                    &plan_cache_);
  last_plan_ = std::move(c.plan);
  return be_.launch(*c.kernel, pts, desc, c.block_size, out);
}

kernels::SdhResult TwoBodyFramework::sdh(const PointsSoA& pts,
                                         double bucket_width, int buckets) {
  kernels::SdhResult r;
  kernels::KernelOutput out;
  out.hist = &r.hist;
  r.stats = run(pts, kernels::ProblemDesc::sdh(bucket_width, buckets), out);
  return r;
}

kernels::PcfResult TwoBodyFramework::pcf(const PointsSoA& pts,
                                         double radius) {
  kernels::PcfResult r;
  kernels::KernelOutput out;
  out.pairs = &r.pairs_within;
  r.stats = run(pts, kernels::ProblemDesc::pcf(radius), out);
  return r;
}

kernels::KnnResult TwoBodyFramework::knn(const PointsSoA& pts, int k,
                                         int block_size) {
  kernels::KnnResult r;
  kernels::KernelOutput out;
  out.neighbours = &r.neighbours;
  r.stats = run(pts, kernels::ProblemDesc::knn(k), out, block_size);
  return r;
}

kernels::KdeResult TwoBodyFramework::kde(const PointsSoA& pts,
                                         double bandwidth, int block_size) {
  return kernels::run_kde(dev_, pts, bandwidth, block_size);
}

kernels::JoinResult TwoBodyFramework::join(const PointsSoA& pts,
                                           double radius,
                                           kernels::JoinVariant variant,
                                           int block_size) {
  kernels::JoinResult r;
  kernels::KernelOutput out;
  out.join_pairs = &r.pairs;
  r.stats = run(pts, kernels::ProblemDesc::join(radius), out, block_size,
                kernels::KernelRegistry::instance().find_by_id(
                    kernels::ProblemType::Join, static_cast<int>(variant)));
  return r;
}

kernels::GramResult TwoBodyFramework::gram(const PointsSoA& pts,
                                           double gamma, int block_size) {
  return kernels::run_gram(dev_, pts, gamma, block_size);
}

}  // namespace tbs::core
