#include "kernels/registry.hpp"

#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "cpubase/cell_grid.hpp"
#include "cpubase/cpu_stats.hpp"
#include "cpubase/tree_sdh.hpp"
#include "kernels/pcf.hpp"
#include "kernels/sdh.hpp"
#include "kernels/type1.hpp"
#include "kernels/type3.hpp"
#include "vgpu/buffer.hpp"

namespace tbs::kernels {

const char* to_string(ProblemType t) {
  switch (t) {
    case ProblemType::Sdh: return "SDH";
    case ProblemType::Pcf: return "PCF";
    case ProblemType::Knn: return "kNN";
    case ProblemType::Join: return "join";
  }
  return "?";
}

namespace {

/// Host-side stats for a CPU launch: only launch-configuration facts are
/// real (launches, block_dim echo). Every simulated-access counter stays
/// zero — obs::check_drift keys its "no device counters, skip" rule on
/// exactly that shape.
vgpu::KernelStats cpu_stats(int block_size) {
  vgpu::KernelStats s;
  s.launches = 1;
  s.block_dim = block_size;
  return s;
}

/// Run the CPU SDH pair tile and report host-side stats.
vgpu::KernelStats cpu_launch_sdh(cpubase::ThreadPool& pool,
                                 const PointsSoA& pts, const ProblemDesc& d,
                                 int block_size, KernelOutput& out) {
  Histogram h = cpubase::cpu_sdh_simd(pool, pts, d.bucket_width,
                                      static_cast<std::size_t>(d.buckets));
  if (out.hist != nullptr) *out.hist = std::move(h);
  return cpu_stats(block_size);
}

/// Run the cell-grid CPU PCF and report host-side stats.
vgpu::KernelStats cpu_launch_pcf(cpubase::ThreadPool& pool,
                                 const PointsSoA& pts, const ProblemDesc& d,
                                 int block_size, KernelOutput& out) {
  const std::uint64_t pairs = cpubase::cpu_pcf_grid(pool, pts, d.radius);
  if (out.pairs != nullptr) *out.pairs = pairs;
  return cpu_stats(block_size);
}

double pairs_of(double n) { return n * (n - 1.0) / 2.0; }

/// The brute-force SDH loop examines every pair, spread over the pool.
CpuWork all_pairs_work(const PointsSoA& /*sample*/, const ProblemDesc&,
                       double target_n) {
  return CpuWork{pairs_of(target_n), true, "cpu-pairs"};
}

/// The grid PCF examines its stencil's candidate pairs. Exact when the
/// sample is the launch's own point set (the engine plans on a query's own
/// points); a smaller sample is scaled by (target / sample)^2, the growth
/// of candidate pairs with density at a fixed extent and cell size.
CpuWork pcf_grid_work(const PointsSoA& sample, const ProblemDesc& d,
                      double target_n) {
  check(!sample.empty(), "pcf_grid_work: empty sample");
  const double scale = target_n / static_cast<double>(sample.size());
  return CpuWork{cpubase::pcf_grid_pairs(sample, d.radius) * scale * scale,
                 true, "cpu-grid"};
}

/// Tree work calibration sizes. The tree's work is a power law in N, not a
/// polynomial in a block count, so unlike the vgpu fit (one, two and three
/// blocks) it needs sizes far enough apart that the log-log slope is
/// already the one large N sees.
constexpr std::array<double, 3> kTreeCalibN = {512, 1024, 2048};

/// One node-pair visit costs roughly this many pair evaluations (AABB
/// min/max distance + two bucket probes).
constexpr double kNodeVisitWeight = 4.0;

/// The tree's work is deterministic for a given point set: count it at the
/// calibration sizes and fit work = a * N^b in log-log space, then
/// extrapolate to the target. The tree walk is sequential.
CpuWork tree_sdh_work(const PointsSoA& sample, const ProblemDesc& d,
                      double target_n) {
  check(!sample.empty(), "tree_sdh_work: empty sample");
  std::array<double, 3> log_n{};
  std::array<double, 3> log_w{};
  for (std::size_t i = 0; i < kTreeCalibN.size(); ++i) {
    const auto n = static_cast<std::size_t>(kTreeCalibN[i]);
    PointsSoA pts;
    pts.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
      pts.push_back(sample[j % sample.size()]);
    cpubase::TreeSdhStats stats;
    (void)cpubase::tree_sdh(pts, d.bucket_width,
                            static_cast<std::size_t>(d.buckets),
                            /*leaf_size=*/32, &stats);
    const double work =
        static_cast<double>(stats.brute_pairs) +
        kNodeVisitWeight * static_cast<double>(stats.node_pair_visits);
    log_n[i] = std::log(kTreeCalibN[i]);
    log_w[i] = std::log(std::max(1.0, work));
  }
  // Least-squares line through three points.
  const double mean_n = (log_n[0] + log_n[1] + log_n[2]) / 3.0;
  const double mean_w = (log_w[0] + log_w[1] + log_w[2]) / 3.0;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    num += (log_n[i] - mean_n) * (log_w[i] - mean_w);
    den += (log_n[i] - mean_n) * (log_n[i] - mean_n);
  }
  const double b = den > 0.0 ? num / den : 2.0;
  const double log_a = mean_w - b * mean_n;
  return CpuWork{std::exp(log_a + b * std::log(target_n)), false, "cpu-tree"};
}

/// One SHM point tile per block: the shared demand of the warpsum PCF, kNN
/// and join kernels.
std::size_t tile_bytes(int block_size, int /*buckets*/) {
  return vgpu::SharedPointsTile::bytes(static_cast<std::size_t>(block_size));
}

KernelVariant make_sdh(SdhVariant v, bool plannable) {
  KernelVariant kv;
  kv.name = to_string(v);
  kv.problem = ProblemType::Sdh;
  kv.variant_id = static_cast<int>(v);
  kv.plannable = plannable;
  kv.backends = kBackendAny;
  kv.shared_bytes = [v](int block_size, int buckets) {
    return sdh_shared_bytes(v, block_size, buckets);
  };
  kv.launch = [v](vgpu::Stream& stream, const PointsSoA& pts,
                  const ProblemDesc& d, int block_size, KernelOutput& out) {
    SdhResult r =
        run_sdh(stream, pts, d.bucket_width, d.buckets, v, block_size);
    if (out.hist != nullptr) *out.hist = std::move(r.hist);
    return r.stats;
  };
  // Every SDH variant computes the same statistic, so they all share one
  // CPU peer; the variant distinction only matters on the vgpu side.
  kv.launch_cpu = cpu_launch_sdh;
  kv.cpu_work = all_pairs_work;
  return kv;
}

KernelVariant make_pcf(PcfVariant v, bool plannable) {
  KernelVariant kv;
  kv.name = to_string(v);
  kv.problem = ProblemType::Pcf;
  kv.variant_id = static_cast<int>(v);
  kv.plannable = plannable;
  kv.backends = kBackendAny;
  kv.shared_bytes = [v](int block_size, int /*buckets*/) {
    return pcf_shared_bytes(v, block_size);
  };
  kv.launch = [v](vgpu::Stream& stream, const PointsSoA& pts,
                  const ProblemDesc& d, int block_size, KernelOutput& out) {
    PcfResult r = run_pcf(stream, pts, d.radius, v, block_size);
    if (out.pairs != nullptr) *out.pairs = r.pairs_within;
    return r.stats;
  };
  kv.launch_cpu = cpu_launch_pcf;
  kv.cpu_work = pcf_grid_work;
  return kv;
}

/// The warp-shuffle output reduction extension lives outside PcfVariant, so
/// it registers with variant_id = -1. Not plannable: it requires a warp-
/// multiple block size, which the planner's candidate grid doesn't
/// guarantee for future extensions, and it exists as an ablation.
KernelVariant make_pcf_warpsum() {
  KernelVariant kv;
  kv.name = "Warpsum";
  kv.problem = ProblemType::Pcf;
  kv.variant_id = -1;
  kv.plannable = false;
  kv.shared_bytes = tile_bytes;
  kv.launch = [](vgpu::Stream& stream, const PointsSoA& pts,
                 const ProblemDesc& d, int block_size, KernelOutput& out) {
    PcfResult r = run_pcf_warpsum(stream, pts, d.radius, block_size);
    if (out.pairs != nullptr) *out.pairs = r.pairs_within;
    return r.stats;
  };
  kv.backends = kBackendAny;
  kv.launch_cpu = cpu_launch_pcf;
  return kv;
}

/// All-point kNN: one register-resident kernel on the device, the
/// cell-grid shell search on the CPU. Both compute float distances the
/// same way, so neighbour lists are bit-identical.
KernelVariant make_knn() {
  KernelVariant kv;
  kv.name = "kNN";
  kv.problem = ProblemType::Knn;
  kv.baseline = true;
  kv.backends = kBackendAny;
  kv.shared_bytes = tile_bytes;
  kv.launch = [](vgpu::Stream& stream, const PointsSoA& pts,
                 const ProblemDesc& d, int block_size, KernelOutput& out) {
    KnnResult r = run_knn(stream, pts, d.k, block_size);
    if (out.neighbours != nullptr) *out.neighbours = std::move(r.neighbours);
    return r.stats;
  };
  kv.launch_cpu = [](cpubase::ThreadPool& pool, const PointsSoA& pts,
                     const ProblemDesc& d, int block_size, KernelOutput& out) {
    auto rows = cpubase::cpu_knn_grid(pool, pts, d.k);
    if (out.neighbours != nullptr) *out.neighbours = std::move(rows);
    return cpu_stats(block_size);
  };
  return kv;
}

/// Distance join with one of the two output strategies. The CPU peer is
/// the same cell-grid join for both: they differ only in how the device
/// emits pairs, and the pair *set* is the contract.
KernelVariant make_join(JoinVariant v) {
  KernelVariant kv;
  kv.name = to_string(v);
  kv.problem = ProblemType::Join;
  kv.variant_id = static_cast<int>(v);
  kv.baseline = v == JoinVariant::TwoPhase;
  kv.backends = kBackendAny;
  kv.shared_bytes = tile_bytes;
  kv.launch = [v](vgpu::Stream& stream, const PointsSoA& pts,
                  const ProblemDesc& d, int block_size, KernelOutput& out) {
    JoinResult r = run_distance_join(stream, pts, d.radius, v, block_size);
    if (out.join_pairs != nullptr) *out.join_pairs = std::move(r.pairs);
    return r.stats;
  };
  kv.launch_cpu = [](cpubase::ThreadPool& pool, const PointsSoA& pts,
                     const ProblemDesc& d, int block_size, KernelOutput& out) {
    auto pairs = cpubase::cpu_distance_join_grid(pool, pts, d.radius);
    if (out.join_pairs != nullptr) *out.join_pairs = std::move(pairs);
    return cpu_stats(block_size);
  };
  return kv;
}

/// The sub-quadratic tree SDH is CPU-only: its recursion has no vgpu
/// kernel, but it is exact (bit-identical bucketing via the same
/// double-precision division) and planner-eligible, so large-N SDH can be
/// placed on the CpuBackend when the tree's ~O(N^1.5) work beats the
/// quadratic kernels on the simulated device.
KernelVariant make_tree_sdh() {
  KernelVariant kv;
  kv.name = "Tree-SDH";
  kv.problem = ProblemType::Sdh;
  kv.variant_id = -1;
  kv.plannable = true;
  kv.backends = kBackendCpu;
  kv.shared_bytes = [](int /*block_size*/, int /*buckets*/) {
    return std::size_t{0};
  };
  kv.launch_cpu = [](cpubase::ThreadPool& /*pool*/, const PointsSoA& pts,
                     const ProblemDesc& d, int block_size, KernelOutput& out) {
    Histogram h = cpubase::tree_sdh(pts, d.bucket_width,
                                    static_cast<std::size_t>(d.buckets));
    if (out.hist != nullptr) *out.hist = std::move(h);
    return cpu_stats(block_size);
  };
  kv.cpu_work = tree_sdh_work;
  return kv;
}

}  // namespace

KernelRegistry::KernelRegistry() {
  // SDH variants, enum order. The global-atomic output kernels (Naive,
  // Register-SHM, Register-ROC) are figure baselines; the planner considers
  // only the privatized-output family, matching the paper's Sec. IV-C
  // finding that output privatization always wins for Type-II problems.
  variants_.push_back(make_sdh(SdhVariant::Naive, /*plannable=*/false));
  variants_.push_back(make_sdh(SdhVariant::RegShm, /*plannable=*/false));
  variants_.push_back(make_sdh(SdhVariant::RegRoc, /*plannable=*/false));
  variants_.push_back(make_sdh(SdhVariant::NaiveOut, /*plannable=*/true));
  variants_.push_back(make_sdh(SdhVariant::RegShmOut, /*plannable=*/true));
  variants_.push_back(make_sdh(SdhVariant::RegRocOut, /*plannable=*/true));
  variants_.back().baseline = true;
  variants_.push_back(make_sdh(SdhVariant::RegShmLb, /*plannable=*/true));
  variants_.push_back(make_sdh(SdhVariant::ShuffleOut, /*plannable=*/true));

  // PCF variants, enum order. Naive is the figure baseline.
  variants_.push_back(make_pcf(PcfVariant::Naive, /*plannable=*/false));
  variants_.push_back(make_pcf(PcfVariant::ShmShm, /*plannable=*/true));
  variants_.push_back(make_pcf(PcfVariant::RegShm, /*plannable=*/true));
  variants_.back().baseline = true;
  variants_.push_back(make_pcf(PcfVariant::RegRoc, /*plannable=*/true));

  variants_.push_back(make_pcf_warpsum());

  // Extension variants outside the paper's enum space register last.
  variants_.push_back(make_tree_sdh());

  // Type-I kNN and Type-III join: one fixed variant each per query, never
  // planned.
  variants_.push_back(make_knn());
  variants_.push_back(make_join(JoinVariant::GlobalCursor));
  variants_.push_back(make_join(JoinVariant::TwoPhase));
}

const KernelRegistry& KernelRegistry::instance() {
  static const KernelRegistry registry;
  return registry;
}

std::vector<const KernelVariant*> KernelRegistry::for_problem(
    ProblemType t, unsigned mask) const {
  std::vector<const KernelVariant*> out;
  for (const KernelVariant& v : variants_)
    if (v.problem == t && (v.backends & mask) != 0) out.push_back(&v);
  return out;
}

std::vector<const KernelVariant*> KernelRegistry::plannable(
    ProblemType t, unsigned mask) const {
  std::vector<const KernelVariant*> out;
  for (const KernelVariant& v : variants_)
    if (v.problem == t && v.plannable && (v.backends & mask) != 0)
      out.push_back(&v);
  return out;
}

const KernelVariant* KernelRegistry::find(ProblemType t,
                                          std::string_view name) const {
  for (const KernelVariant& v : variants_)
    if (v.problem == t && v.name == name) return &v;
  return nullptr;
}

const KernelVariant* KernelRegistry::find_by_id(ProblemType t,
                                                int variant_id) const {
  if (variant_id < 0) return nullptr;  // -1 marks extension variants
  for (const KernelVariant& v : variants_)
    if (v.problem == t && v.variant_id == variant_id) return &v;
  return nullptr;
}

const KernelVariant& KernelRegistry::baseline(ProblemType t) const {
  for (const KernelVariant& v : variants_)
    if (v.problem == t && v.baseline) return v;
  fail("KernelRegistry: problem type has no baseline variant");
}

}  // namespace tbs::kernels
