#include "walk.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "common/fingerprint.hpp"
#include "common/rng.hpp"
#include "cpubase/cpu_stats.hpp"
#include "kernels/registry.hpp"
#include "kernels/type1.hpp"
#include "kernels/type3.hpp"
#include "perfmodel/timemodel.hpp"
#include "shard/executor.hpp"

namespace perfbench {

namespace serve = tbs::serve;
namespace kernels = tbs::kernels;

namespace {

kernels::ProblemDesc desc_of(const serve::Query& q) {
  if (const auto* s = std::get_if<serve::SdhQuery>(&q))
    return kernels::ProblemDesc::sdh(s->bucket_width, s->buckets);
  return kernels::ProblemDesc::pcf(std::get<serve::PcfQuery>(q).radius);
}

}  // namespace

void TimedBackend::record(const char* name, double start, double pairs,
                          const tbs::vgpu::KernelStats* stats) {
  if (stats != nullptr && spec_ != nullptr)
    model_seconds_ += tbs::perfmodel::model_time(*spec_, *stats).seconds;
  Span s;
  s.parent = parent_;
  s.query = query_;
  s.name = name;
  s.layer = layer_;
  s.kind = kind_;
  s.start = start;
  s.end = now_seconds();
  s.pairs = pairs;
  log_.record(std::move(s));
}

std::size_t TimedBackend::stage(const tbs::PointsSoA& pts) {
  const double t0 = now_seconds();
  const std::size_t bytes = inner_.stage(pts);
  record("backend.stage", t0, 0.0);
  return bytes;
}

tbs::vgpu::KernelStats TimedBackend::launch(
    const kernels::KernelVariant& v, const tbs::PointsSoA& pts,
    const kernels::ProblemDesc& desc, int block_size,
    kernels::KernelOutput& out) {
  const double t0 = now_seconds();
  tbs::vgpu::KernelStats st = inner_.launch(v, pts, desc, block_size, out);
  record("backend.launch", t0, pairs_of(pts.size()), &st);
  return st;
}

tbs::vgpu::KernelStats TimedBackend::launch_cross(
    const tbs::PointsSoA& anchors, const tbs::PointsSoA& partners,
    const kernels::ProblemDesc& desc, int block_size,
    kernels::KernelOutput& out) {
  const double t0 = now_seconds();
  tbs::vgpu::KernelStats st =
      inner_.launch_cross(anchors, partners, desc, block_size, out);
  record("backend.launch", t0,
         static_cast<double>(anchors.size()) *
             static_cast<double>(partners.size()),
         &st);
  return st;
}

tbs::backend::Estimate TimedBackend::estimate(
    const kernels::KernelVariant& v, const tbs::PointsSoA& sample,
    const kernels::ProblemDesc& desc, int block_size, double target_n) {
  const double t0 = now_seconds();
  tbs::backend::Estimate e =
      inner_.estimate(v, sample, desc, block_size, target_n);
  record("backend.estimate", t0, 0.0);
  return e;
}

Walker::Walker(const Schedule& s, SpanLog& log, tbs::core::PlanCache& plans)
    : s_(s), log_(log), plans_(plans) {
  for (std::size_t d = 0; d < s.config.devices; ++d) {
    devices_.push_back(std::make_unique<tbs::vgpu::Device>(s.config.spec));
    vgpu_.push_back(std::make_unique<tbs::backend::VgpuBackend>(*devices_.back()));
    timed_vgpu_.push_back(std::make_unique<TimedBackend>(
        *vgpu_.back(), log, "vgpu", &devices_.back()->spec()));
  }
  if (s.config.cpu_workers > 0) {
    tbs::backend::CpuBackend::Config bc;
    bc.threads = s.config.cpu_threads;
    cpu_ = std::make_unique<tbs::backend::CpuBackend>(bc);
    timed_cpu_ = std::make_unique<TimedBackend>(*cpu_, log, "cpubase");
  }
}

std::uint64_t Walker::backend_launches() const {
  std::uint64_t n = cpu_ ? cpu_->counters().launches : 0;
  for (const auto& v : vgpu_) n += v->counters().launches;
  return n;
}

void Walker::prime() {
  tbs::backend::IBackend& be =
      cpu_ ? static_cast<tbs::backend::IBackend&>(*cpu_) : *vgpu_.front();
  for (const Item& it : s_.priming) {
    const tbs::PointsSoA& pts = s_.datasets[it.dataset];
    const kernels::ProblemDesc desc = desc_of(it.query);
    tbs::backend::IBackend* one[] = {&be};
    (void)tbs::core::plan(one, pts, desc, static_cast<double>(pts.size()),
                          &plans_, nullptr);
    // Another walker may have filled the shared plan cache already; the
    // per-backend CPU pair-cost calibration must still run here, in set-up.
    if (cpu_)
      for (const kernels::KernelVariant* v :
           kernels::KernelRegistry::instance().plannable(
               desc.type, be.caps().registry_mask))
        if (be.can_launch(*v, desc, 256)) {
          (void)be.estimate(*v, pts, desc, 256,
                            static_cast<double>(pts.size()));
          break;
        }
  }
}

template <typename F>
void Walker::timed(std::uint64_t query, const char* name, const char* layer,
                   const char* kind, double pairs, F&& body) {
  Span s;
  s.query = query;
  s.name = name;
  s.layer = layer;
  s.kind = kind;
  s.pairs = pairs;
  s.start = now_seconds();
  body();
  s.end = now_seconds();
  log_.record(std::move(s));
}

double Walker::walk(std::uint64_t query, const Item& item,
                    const tbs::obs::QueryCost& qc) {
  const tbs::PointsSoA& pts = s_.datasets[item.dataset];
  const char* kind = serve::kind_name(item.query);
  const double t0 = now_seconds();
  double excluded = 0.0;  // comparison runs the engine did not do

  // Front door: the engine validates and fingerprints every submission.
  timed(query, "common.hash", "common", kind, 0.0, [&] {
    hash_sink_ ^= tbs::dataset_fingerprint(pts) ^ tbs::checksum(pts.x()) ^
                  tbs::checksum(pts.y()) ^ tbs::checksum(pts.z());
  });
  if (qc.cache_hit || qc.coalesced || qc.failed) return now_seconds() - t0;

  const bool on_cpu = static_cast<bool>(cpu_);
  if (qc.sharded) {
    excluded = walk_sharded(query, item);
  } else if (std::holds_alternative<serve::SdhQuery>(item.query) ||
             std::holds_alternative<serve::PcfQuery>(item.query)) {
    walk_planned(query, item, on_cpu ? *timed_cpu_ : *timed_vgpu_.front());
  } else if (const auto* k = std::get_if<serve::KnnQuery>(&item.query)) {
    if (on_cpu)
      timed(query, "cpubase.knn", "cpubase", kind, pairs_of(pts.size()),
            [&] { (void)tbs::cpubase::cpu_knn(cpu_->pool(), pts, k->k); });
    else
      timed(query, "kernels.knn", "vgpu", kind, pairs_of(pts.size()), [&] {
        (void)kernels::run_knn(vgpu_.front()->device(), pts, k->k,
                               /*block_size=*/256);
      });
  } else {
    const auto& j = std::get<serve::JoinQuery>(item.query);
    if (on_cpu)
      timed(query, "cpubase.join", "cpubase", kind, pairs_of(pts.size()), [&] {
        (void)tbs::cpubase::cpu_distance_join(cpu_->pool(), pts, j.radius);
      });
    else
      timed(query, "kernels.join", "vgpu", kind, pairs_of(pts.size()), [&] {
        (void)kernels::run_distance_join(vgpu_.front()->stream(), pts,
                                         j.radius, j.variant,
                                         /*block_size=*/256);
      });
  }
  audit(query, item);
  return now_seconds() - t0 - excluded;
}

void Walker::walk_planned(std::uint64_t query, const Item& item,
                          TimedBackend& be) {
  const tbs::PointsSoA& pts = s_.datasets[item.dataset];
  const char* kind = serve::kind_name(item.query);
  const kernels::ProblemDesc desc = desc_of(item.query);
  const auto& registry = kernels::KernelRegistry::instance();
  // The engine's defaults below the plan threshold.
  const kernels::KernelVariant* kernel = registry.find_by_id(
      desc.type, desc.type == kernels::ProblemType::Sdh
                     ? static_cast<int>(kernels::SdhVariant::RegRocOut)
                     : static_cast<int>(kernels::PcfVariant::RegShm));
  int block = 256;
  if (pts.size() > s_.config.plan_threshold) {
    Span s;
    s.id = log_.reserve();
    s.query = query;
    s.name = "core.plan";
    s.layer = "core";
    s.kind = kind;
    be.bind(query, s.id, kind);
    const std::uint64_t launches0 = be.counters().launches;
    s.start = now_seconds();
    tbs::backend::IBackend* one[] = {&be};
    const tbs::core::Plan p =
        tbs::core::plan(one, pts, desc, static_cast<double>(pts.size()),
                        &plans_, nullptr);
    s.end = now_seconds();
    log_.record(std::move(s));
    calibration_launches_ += be.counters().launches - launches0;
    kernel = p.kernel;
    block = p.block_size;
  } else if (kernel == nullptr || !be.can_launch(*kernel, desc, block)) {
    kernel = nullptr;
    for (const kernels::KernelVariant* v :
         registry.for_problem(desc.type, be.caps().registry_mask))
      if (be.can_launch(*v, desc, block)) {
        kernel = v;
        break;
      }
    if (kernel == nullptr)
      throw std::runtime_error("walk: no launchable default variant");
  }
  be.bind(query, 0, kind);
  tbs::Histogram hist;
  std::uint64_t pairs = 0;
  kernels::KernelOutput out;
  out.hist = &hist;
  out.pairs = &pairs;
  (void)be.launch(*kernel, pts, desc, block, out);
}

double Walker::walk_sharded(std::uint64_t query, const Item& item) {
  const tbs::PointsSoA& pts = s_.datasets[item.dataset];
  const char* kind = serve::kind_name(item.query);
  const kernels::ProblemDesc desc = desc_of(item.query);
  std::vector<tbs::shard::Lane> lanes;
  for (auto& tb : timed_vgpu_) lanes.push_back(tbs::shard::Lane{tb.get(), nullptr, ""});
  if (timed_cpu_) lanes.push_back(tbs::shard::Lane{timed_cpu_.get(), nullptr, ""});

  tbs::shard::Options opt;
  opt.shards = item.shards;
  ShardSample sample;
  Span s;
  s.id = log_.reserve();
  s.query = query;
  s.name = "shard.run";
  s.layer = "shard";
  s.kind = kind;
  for (auto& tb : timed_vgpu_) tb->bind(query, s.id, kind);
  if (timed_cpu_) timed_cpu_->bind(query, s.id, kind);
  tbs::shard::Executor ex;
  s.start = now_seconds();
  const tbs::shard::Report rep = ex.run(lanes, pts, desc, opt);
  s.end = now_seconds();
  sample.wall_seconds = s.seconds();
  // The parallel makespan: the busiest lane's modeled seconds.
  for (const auto& tb : timed_vgpu_)
    sample.model_seconds = std::max(sample.model_seconds, tb->model_seconds());
  sample.stage_seconds = rep.stage_seconds;
  sample.merge_seconds = rep.merge_seconds;
  log_.record(std::move(s));

  // The same query on one lane, untraced: the base of the speedups. The
  // engine does not run it, so the walk does not count its time.
  const double o0 = now_seconds();
  tbs::backend::IBackend* first =
      vgpu_.empty() ? static_cast<tbs::backend::IBackend*>(cpu_.get())
                    : vgpu_.front().get();
  const tbs::shard::Lane one[] = {tbs::shard::Lane{first, nullptr, ""}};
  tbs::shard::Options single;
  single.shards = 1;
  const tbs::shard::Report base = ex.run(one, pts, desc, single);
  sample.one_lane_wall_seconds = now_seconds() - o0;
  sample.one_lane_model_seconds = base.kernel_seconds;
  shard_samples_.push_back(sample);
  return sample.one_lane_wall_seconds;
}

void Walker::audit(std::uint64_t query, const Item& item) {
  if (s_.config.audit_rate <= 0.0 || !cpu_) return;
  if (!std::holds_alternative<serve::SdhQuery>(item.query) &&
      !std::holds_alternative<serve::PcfQuery>(item.query))
    return;
  tbs::Rng coin(0xA0D17ULL ^ (0x9e3779b97f4a7c15ULL * (query + 1)));
  if (coin.uniform() >= s_.config.audit_rate) return;
  // The engine re-executes an audited answer with the registry baseline
  // on a CPU backend.
  const tbs::PointsSoA& pts = s_.datasets[item.dataset];
  const kernels::ProblemDesc desc = desc_of(item.query);
  const kernels::KernelVariant* baseline =
      kernels::KernelRegistry::instance().find_by_id(
          desc.type, desc.type == kernels::ProblemType::Sdh
                         ? static_cast<int>(kernels::SdhVariant::RegRocOut)
                         : static_cast<int>(kernels::PcfVariant::RegShm));
  if (baseline == nullptr) throw std::runtime_error("walk: no audit baseline");
  timed(query, "serve.audit", "serve", serve::kind_name(item.query),
        pairs_of(pts.size()), [&] {
          tbs::Histogram hist;
          std::uint64_t pairs = 0;
          kernels::KernelOutput out;
          out.hist = &hist;
          out.pairs = &pairs;
          (void)cpu_->launch(*baseline, pts, desc, 256, out);
        });
}

}  // namespace perfbench
