// "Beyond" bench: multi-GPU SDH (paper Sec. V: "extended to a multi-GPU
// environment") through the shard executor: shard::Executor tiles over
// K=d shards, each device staged only the shards its tiles touch, and the
// partial histograms merged exactly. The transfer columns compare it with
// replicating the whole input to every device (TransferModel's broadcast
// of Report::replicated_bytes): replication moves d x the dataset,
// sharding moves less the moment d > 1 tiles share operands.
// bench/shard_scaling measures how the sharded makespan scales.
#include <cstdio>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "backend/vgpu_backend.hpp"
#include "common/datagen.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "perfmodel/transfer.hpp"
#include "shard/executor.hpp"

int main(int argc, char** argv) {
  using namespace tbs;
  using namespace tbs::bench;

  std::printf("=== Beyond: multi-GPU SDH through the shard executor ===\n\n");

  const std::size_t n = 4096;
  const int buckets = 256;
  const auto pts = uniform_box(n, 10.0f, 888);
  const double w = pts.max_possible_distance() / buckets + 1e-4;
  const auto desc = kernels::ProblemDesc::sdh(w, buckets);
  const perfmodel::TransferModel pcie;

  TextTable t({"devices", "kernel shard", "xfer repl", "xfer shard",
               "repl bytes", "shard bytes"});
  obs::BenchReport report("beyond_multigpu");
  std::vector<std::pair<int, bool>> fewer_bytes;  // (devices, sharding won)
  for (const int d : {1, 2, 4, 8}) {
    // K=d shards over d devices, staged per tile.
    std::vector<vgpu::Device> devs(static_cast<std::size_t>(d));
    std::vector<std::unique_ptr<backend::VgpuBackend>> backends;
    std::vector<std::mutex> mus(static_cast<std::size_t>(d));
    std::vector<shard::Lane> lanes;
    for (std::size_t i = 0; i < static_cast<std::size_t>(d); ++i) {
      backends.push_back(std::make_unique<backend::VgpuBackend>(devs[i]));
      lanes.push_back(shard::Lane{backends[i].get(), &mus[i],
                                  "gpu" + std::to_string(i)});
    }
    shard::Router router;
    shard::Executor ex(&router);
    shard::Options opt;
    opt.shards = static_cast<std::size_t>(d);
    const shard::Report srep = ex.run(lanes, pts, desc, opt);
    if (srep.hist.total() != n * (n - 1) / 2) {
      std::printf("FATAL: sharded histogram wrong with %d devices\n", d);
      return 1;
    }
    const double replicated_xfer =
        pcie.broadcast_seconds(srep.replicated_bytes / d, d);
    const double sharded_xfer = pcie.seconds(srep.staged_bytes);

    // Entry per device count; n carries the device count (the x-axis).
    obs::BenchEntry& e = report.entry("RegShmOut-multi", d, "sim");
    e.metric("transfer_seconds", replicated_xfer, obs::Better::Lower);
    e.metric("sharded_kernel_seconds", srep.kernel_seconds,
             obs::Better::Lower);
    e.metric("sharded_transfer_seconds", sharded_xfer, obs::Better::Lower);
    e.metric("replicated_bytes", static_cast<double>(srep.replicated_bytes),
             obs::Better::Lower);
    e.metric("sharded_bytes", static_cast<double>(srep.staged_bytes),
             obs::Better::Lower);
    t.add_row({std::to_string(d), fmt_time(srep.kernel_seconds),
               fmt_time(replicated_xfer), fmt_time(sharded_xfer),
               std::to_string(srep.replicated_bytes),
               std::to_string(srep.staged_bytes)});
    if (d > 1)
      fewer_bytes.emplace_back(d,
                               srep.staged_bytes < srep.replicated_bytes);
  }
  t.print(std::cout);
  std::printf(
      "\nnote: at this N the full 24-SM spec keeps every grid resident, so\n"
      "the sharded makespan is latency-bound and flat; bench/shard_scaling\n"
      "measures makespan scaling on saturated lanes. The columns to read\n"
      "here are the transfer ones: replication moves d x the dataset,\n"
      "sharding moves only the shards each lane's tiles touch.\n");

  std::printf("\nshape checks:\n");
  ShapeChecks checks;
  for (const auto& [d, won] : fewer_bytes)
    checks.expect(won, "sharding moves fewer bytes than replication at " +
                           std::to_string(d) + " devices");
  write_report(report, obs::artifact_dir(argc, argv));
  return checks.finish();
}
