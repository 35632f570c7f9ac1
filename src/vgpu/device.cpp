// Warp-lockstep execution engine and the block queue pooled launches share.
//
// Scheduling model: every lane is a coroutine. A scheduler pass over each
// warp makes one sweep of its lanes: it resumes each lane whose last op has
// issued (or that has none) until the lane suspends or finishes, and sorts
// every pending op by kind. It then issues each *kind-group* of pending
// non-barrier ops as one SIMT instruction: coalescing analysis for global
// ops, bank-conflict analysis for shared ops, address-collision
// serialization for atomics, and staging exchange for shuffles. Barriers
// release only when every live lane of the block has arrived. A warp's clock
// advances by the charged cost of each instruction it issues plus the
// max-over-lanes arithmetic between suspension points — so divergence (lanes
// with longer loops) lengthens the warp's serial time exactly as it does on
// real SIMT hardware.
//
// Launch semantics (shared by Device::launch and Stream::launch):
// every block starts from an empty L2 and an empty read-only cache built
// from the device's spec — on real hardware blocks race, so no block may
// depend on another's fills — and no cache state outlives the launch. Each
// block logs the atomic lines it touched into a ledger, and after all
// blocks finish the counters and ledgers are merged in block-id order. The
// result is a pure function of (spec, config, body): the same on every
// launch, and bit-identical whether blocks ran inline or on the block
// queue, which is the contract the stream tests pin down.
//
// Block queue: every pooled launch in the process puts its blocks on one
// queue. async_worker_count() - 1 helper threads claim blocks of the
// oldest launch in it, and each launching thread claims blocks of its own
// launch until none is left, then waits for the helpers' blocks to finish.
// So launches on different devices run at once and share the helpers, and
// a block's thread never changes what the block computes. run_tasks() puts
// host tasks on the same queue as the blocks of one launch; a task that
// launches waits only for its own launch's blocks, which no task holds.
#include "vgpu/device.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "vgpu/cache.hpp"
#include "vgpu/stream.hpp"

namespace tbs::vgpu {

namespace {

/// Per-block record of the atomic lines a block touched, merged in
/// block-id order after all blocks finish (see the launch-semantics note
/// above).
struct BlockLedger {
  std::vector<std::uintptr_t> atomic_lines;  ///< unique atomic lines
};

/// One simulated thread: its context (stable address — coroutine captures
/// a reference) plus its coroutine handle.
struct Lane {
  ThreadCtx ctx;
  KernelTask task;
  bool done = false;
};

/// Gathered view of one warp during a launch.
struct WarpRunner {
  WarpState state;
  int first_lane = 0;
  int lane_count = 0;
  /// Bit k set: the warp's kind-k group issued on its last step, so those
  /// lanes resume on the next one.
  unsigned issued_kinds = 0;
};

/// Scratch vector of lane indices pending the same op kind.
using LaneGroup = std::array<int, 32>;

constexpr std::size_t kOpKinds = static_cast<std::size_t>(OpKind::Barrier) + 1;

class BlockExecutor {
 public:
  BlockExecutor(const DeviceSpec& spec, const LaunchConfig& cfg,
                SetAssocCache& l2, KernelStats& stats, BlockLedger& ledger)
      : spec_(spec),
        cfg_(cfg),
        l2_(l2),
        stats_(stats),
        ledger_(ledger),
        roc_(spec.roc_bytes_per_sm, spec.roc_ways, spec.line_bytes),
        shared_arena_(cfg.shared_bytes) {}

  void run(int block_id, const KernelBody& body) {
    setup(block_id, body);

    while (live_ > 0) {
      bool progressed = false;
      int waiting = 0;  // live lanes parked at the block barrier
      for (auto& warp : warps_) {
        progressed |= step_warp(warp, waiting);
      }
      if (live_ > 0 && waiting == live_) {
        release_barrier();
        progressed = true;
      }
      check(progressed || live_ == 0,
            "vgpu deadlock: no lane can make progress (unsatisfiable "
            "barrier?)");
    }

    // Flush per-warp accounting into the launch stats.
    double block_cycles = 0.0;
    for (auto& warp : warps_) {
      warp.state.clock += warp.state.tail_arith_max;
      stats_.arith_warp_cycles += warp.state.tail_arith_max;
      stats_.phase_cycles[warp.state.cur_phase] +=
          warp.state.clock - warp.state.phase_start_clock;
      stats_.total_warp_cycles += warp.state.clock;
      block_cycles = std::max(block_cycles, warp.state.clock);
    }
    stats_.max_block_cycles = std::max(stats_.max_block_cycles, block_cycles);
    lanes_.clear();
    warps_.clear();
  }

 private:
  void setup(int block_id, const KernelBody& body) {
    const int b = cfg_.block_dim;
    const int warp_count = (b + spec_.warp_size - 1) / spec_.warp_size;
    warps_.assign(static_cast<std::size_t>(warp_count), WarpRunner{});
    lanes_ = std::vector<Lane>(static_cast<std::size_t>(b));
    std::fill(shared_arena_.begin(), shared_arena_.end(), std::byte{0});
    roc_.invalidate();  // fresh block ~ fresh SM residency (conservative)

    for (int w = 0; w < warp_count; ++w) {
      warps_[w].first_lane = w * spec_.warp_size;
      warps_[w].lane_count =
          std::min(spec_.warp_size, b - warps_[w].first_lane);
    }
    for (int t = 0; t < b; ++t) {
      Lane& lane = lanes_[static_cast<std::size_t>(t)];
      ThreadCtx& ctx = lane.ctx;
      ctx.thread_id = t;
      ctx.block_id = block_id;
      ctx.block_dim = b;
      ctx.grid_dim = cfg_.grid_dim;
      ctx.lane = t % spec_.warp_size;
      ctx.warp = &warps_[static_cast<std::size_t>(t / spec_.warp_size)].state;
      ctx.shared_base = shared_arena_.data();
      ctx.shared_size = shared_arena_.size();
      ctx.shared_arena_addr =
          reinterpret_cast<std::uintptr_t>(shared_arena_.data());
      ctx.phase_cycles = &stats_.phase_cycles;
      lane.task = body(ctx);
    }
    live_ = b;
  }

  /// One scheduler step for a warp: a single sweep of its lanes resumes
  /// every lane whose op has issued (or that has none yet) and sorts the
  /// pending ops by kind; then each kind group issues. Adds the warp's
  /// lanes parked at the barrier to `waiting`. Returns true if anything
  /// progressed.
  bool step_warp(WarpRunner& warp, int& waiting) {
    bool progressed = false;
    const unsigned issued = std::exchange(warp.issued_kinds, 0u);
    std::array<int, kOpKinds> group_size{};
    int warp_live = 0;
    int barrier_count = 0;
    for (int i = 0; i < warp.lane_count; ++i) {
      const int idx = warp.first_lane + i;
      Lane& lane = lanes_[static_cast<std::size_t>(idx)];
      if (lane.done) continue;
      if (!lane.ctx.has_pending ||
          (issued >> static_cast<unsigned>(lane.ctx.pending.kind) & 1u)) {
        lane.task.resume();
        progressed = true;
        if (lane.task.done()) {
          lane.done = true;
          --live_;
          // Tail arithmetic executed after the lane's last suspension.
          warp.state.tail_arith_max =
              std::max(warp.state.tail_arith_max,
                       lane.ctx.arith_ops - lane.ctx.arith_mark +
                           lane.ctx.control_ops - lane.ctx.control_mark);
          stats_.arith_ops += lane.ctx.arith_ops - lane.ctx.arith_mark;
          stats_.control_ops += lane.ctx.control_ops - lane.ctx.control_mark;
          lane.ctx.arith_mark = lane.ctx.arith_ops;
          lane.ctx.control_mark = lane.ctx.control_ops;
          continue;
        }
      }
      // A live lane always suspends with an op pending.
      ++warp_live;
      const auto k = static_cast<std::size_t>(lane.ctx.pending.kind);
      if (lane.ctx.pending.kind == OpKind::Barrier) {
        ++barrier_count;
        continue;
      }
      groups_[k][static_cast<std::size_t>(group_size[k])] = idx;
      ++group_size[k];
    }
    waiting += barrier_count;

    // Issue every non-barrier kind group as one SIMT instruction. A shuffle
    // only issues once *every* live lane of the warp has arrived at it —
    // lanes still finishing a predicated side path (e.g. an atomic between
    // two shuffles) are given time to catch up; if they can never arrive the
    // block-level deadlock check fires.
    for (std::size_t k = 0; k < kOpKinds; ++k) {
      if (group_size[k] == 0) continue;
      if (static_cast<OpKind>(k) == OpKind::Shuffle &&
          group_size[k] < warp_live)
        continue;
      issue(warp, static_cast<OpKind>(k), groups_[k],
            static_cast<std::size_t>(group_size[k]));
      warp.issued_kinds |= 1u << k;
      progressed = true;
    }
    return progressed;
  }

  /// Release the block barrier, at which every live lane has arrived.
  void release_barrier() {
    // Fold each warp's pre-barrier arithmetic (max over its live lanes)
    // into its clock before aligning all warps to the block-wide maximum.
    for (auto& warp : warps_) {
      pending_arith_max_ = 0.0;
      pending_control_max_ = 0.0;
      for (int i = 0; i < warp.lane_count; ++i) {
        Lane& lane = lanes_[static_cast<std::size_t>(warp.first_lane + i)];
        if (!lane.done) charge_arith_for_lane(lane);
      }
      warp.state.clock += pending_arith_max_ + pending_control_max_;
      stats_.arith_warp_cycles += pending_arith_max_;
      stats_.control_warp_cycles += pending_control_max_;
    }

    double block_clock = 0.0;
    for (const auto& warp : warps_)
      block_clock = std::max(block_clock, warp.state.clock);
    block_clock += spec_.lat_barrier;
    for (auto& warp : warps_) warp.state.clock = block_clock;
    for (auto& lane : lanes_) {
      if (lane.done) continue;
      lane.ctx.has_pending = false;
      ++stats_.barriers;
    }
  }

  /// Fold a lane's un-charged arithmetic into the running max-over-lanes
  /// accumulator (SIMD issue semantics); caller adds it to the warp clock.
  void charge_arith_for_lane(Lane& lane) {
    const double delta = lane.ctx.arith_ops - lane.ctx.arith_mark;
    lane.ctx.arith_mark = lane.ctx.arith_ops;
    stats_.arith_ops += delta;
    pending_arith_max_ = std::max(pending_arith_max_, delta);
    const double cdelta = lane.ctx.control_ops - lane.ctx.control_mark;
    lane.ctx.control_mark = lane.ctx.control_ops;
    stats_.control_ops += cdelta;
    pending_control_max_ = std::max(pending_control_max_, cdelta);
  }

  void issue(WarpRunner& warp, OpKind kind, const LaneGroup& lanes,
             std::size_t n) {
    // Arithmetic executed since each lane's previous instruction, folded as
    // max over the participating lanes (SIMD issue).
    pending_arith_max_ = 0.0;
    pending_control_max_ = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      charge_arith_for_lane(lanes_[static_cast<std::size_t>(lanes[i])]);
    warp.state.clock += pending_arith_max_ + pending_control_max_;
    stats_.arith_warp_cycles += pending_arith_max_;
    stats_.control_warp_cycles += pending_control_max_;

    stats_.warp_instructions += 1;
    stats_.active_lane_slots += n;
    stats_.possible_lane_slots += static_cast<std::uint64_t>(spec_.warp_size);

    double cost = 0.0;
    switch (kind) {
      case OpKind::GlobalLoad:
      case OpKind::GlobalStore:
        cost = issue_global(lanes, n, /*through_roc=*/false);
        if (kind == OpKind::GlobalLoad)
          stats_.global_loads += n;
        else
          stats_.global_stores += n;
        break;
      case OpKind::RocLoad:
        cost = issue_global(lanes, n, /*through_roc=*/true);
        stats_.roc_loads += n;
        break;
      case OpKind::SharedLoad:
      case OpKind::SharedStore:
        cost = issue_shared(lanes, n);
        if (kind == OpKind::SharedLoad)
          stats_.shared_loads += n;
        else
          stats_.shared_stores += n;
        break;
      case OpKind::SharedAtomic:
        cost = issue_atomic(lanes, n, /*global=*/false);
        stats_.shared_atomics += n;
        break;
      case OpKind::GlobalAtomic:
        cost = issue_atomic(lanes, n, /*global=*/true);
        stats_.global_atomics += n;
        break;
      case OpKind::Shuffle:
        cost = issue_shuffle(warp, lanes, n);
        stats_.shuffles += n;
        break;
      case OpKind::Barrier:
      case OpKind::None:
        fail("issue(): unexpected op kind");
    }
    // Resume happens lazily: the warp's next step resumes these lanes
    // (await_resume then performs data movement).
    warp.state.clock += cost;
  }

  /// Coalescing + cache analysis for global-path ops. Returns cycle cost.
  double issue_global(const LaneGroup& lanes, std::size_t n,
                      bool through_roc) {
    // Collect unique cache-line segments across all addresses in the group.
    std::array<std::uintptr_t, 96>& segs = segs_;
    std::size_t seg_count = 0;
    std::uint64_t useful_bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const PendingOp& op =
          lanes_[static_cast<std::size_t>(lanes[i])].ctx.pending;
      useful_bytes +=
          static_cast<std::uint64_t>(op.n_addr) * op.elem_bytes;
      for (int a = 0; a < op.n_addr; ++a) {
        const std::uintptr_t seg = op.addr[a] / spec_.line_bytes;
        bool found = false;
        for (std::size_t s = 0; s < seg_count; ++s) {
          if (segs[s] == seg) {
            found = true;
            break;
          }
        }
        if (!found && seg_count < segs.size()) segs[seg_count++] = seg;
      }
    }
    bool worst_is_dram = false;
    bool any_roc_miss = false;
    for (std::size_t s = 0; s < seg_count; ++s) {
      const std::uintptr_t line_addr = segs[s] * spec_.line_bytes;
      if (through_roc) {
        // Every segment request occupies a tex-unit slot, hit or miss;
        // hits are served at request granularity (useful bytes), only
        // misses move whole lines on the L2/DRAM path below.
        ++stats_.roc_port_cycles;
        if (roc_.access(line_addr)) {
          stats_.roc_hit_bytes += useful_bytes / seg_count;
          continue;
        }
        any_roc_miss = true;
      }
      // L2 path (direct global access, or ROC miss fill).
      if (l2_.access(line_addr)) {
        stats_.l2_bytes += spec_.line_bytes;
      } else {
        stats_.dram_bytes += spec_.line_bytes;
        worst_is_dram = true;
      }
    }
    stats_.global_transactions += seg_count;

    double base;
    if (through_roc)
      base = any_roc_miss ? (worst_is_dram ? spec_.lat_global : spec_.lat_l2)
                          : spec_.lat_roc;
    else
      base = worst_is_dram ? spec_.lat_global : spec_.lat_l2;
    return base +
           static_cast<double>(seg_count > 0 ? seg_count - 1 : 0) *
               spec_.extra_segment;
  }

  /// Bank-conflict analysis for shared ops. Returns cycle cost.
  double issue_shared(const LaneGroup& lanes, std::size_t n) {
    // For multi-address (point) ops, each address slot is a separate
    // 32-lane access; conflicts are computed per slot.
    int max_slots = 0;
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const PendingOp& op =
          lanes_[static_cast<std::size_t>(lanes[i])].ctx.pending;
      max_slots = std::max(max_slots, static_cast<int>(op.n_addr));
      bytes += static_cast<std::uint64_t>(op.n_addr) * op.elem_bytes;
    }
    stats_.shared_bytes += bytes;

    std::uint64_t transactions = 0;
    for (int slot = 0; slot < max_slots; ++slot) {
      // words[bank] -> set of distinct word addresses (tiny linear scan);
      // only its first per_bank[bank] entries are ever read.
      auto& words = bank_words_;
      std::array<int, 32> per_bank{};
      int degree = 1;
      for (std::size_t i = 0; i < n; ++i) {
        const PendingOp& op =
            lanes_[static_cast<std::size_t>(lanes[i])].ctx.pending;
        if (slot >= op.n_addr) continue;
        const std::uintptr_t word = op.addr[static_cast<std::size_t>(slot)] / 4;
        const auto bank = static_cast<std::size_t>(word % 32);
        bool dup = false;
        for (int w = 0; w < per_bank[bank]; ++w) {
          if (words[bank][static_cast<std::size_t>(w)] == word) {
            dup = true;  // same word: broadcast, no extra transaction
            break;
          }
        }
        if (!dup && per_bank[bank] < 32) {
          words[bank][static_cast<std::size_t>(per_bank[bank])] = word;
          ++per_bank[bank];
          degree = std::max(degree, per_bank[bank]);
        }
      }
      transactions += static_cast<std::uint64_t>(degree);
    }
    stats_.shared_transactions += transactions;
    const std::uint64_t extra =
        transactions - static_cast<std::uint64_t>(max_slots);
    stats_.bank_conflict_extra += extra;
    return spec_.lat_shared +
           static_cast<double>(extra +
                               static_cast<std::uint64_t>(max_slots) - 1) *
               spec_.extra_bank_conflict;
  }

  /// Address-collision serialization for atomics. Returns cycle cost.
  double issue_atomic(const LaneGroup& lanes, std::size_t n, bool global) {
    std::array<std::uintptr_t, 32>& addrs = atomic_addrs_;
    std::array<int, 32>& hits = atomic_hits_;
    // Distinct addresses in first-touch order, found through an
    // open-addressing table twice the warp's size (never full): slot
    // value u + 1 names addrs[u], 0 is empty.
    std::array<std::uint8_t, 64>& slots = atomic_slots_;
    slots.fill(0);
    std::size_t unique = 0;
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const PendingOp& op =
          lanes_[static_cast<std::size_t>(lanes[i])].ctx.pending;
      bytes += op.elem_bytes;
      const std::uintptr_t a = op.addr[0];
      std::size_t s = (static_cast<std::uint64_t>(a) *
                       0x9E3779B97F4A7C15ull) >> 58;  // top 6 bits
      while (slots[s] != 0 && addrs[slots[s] - 1u] != a) s = (s + 1) & 63u;
      if (slots[s] != 0) {
        ++hits[slots[s] - 1u];
      } else {
        addrs[unique] = a;
        hits[unique] = 1;
        slots[s] = static_cast<std::uint8_t>(++unique);
      }
    }
    int max_collisions = 1;
    std::uint64_t extra = 0;
    for (std::size_t u = 0; u < unique; ++u) {
      max_collisions = std::max(max_collisions, hits[u]);
      extra += static_cast<std::uint64_t>(hits[u] - 1);
    }
    stats_.atomic_collision_extra += extra;

    if (global) {
      // Global atomics resolve in L2; each lane's RMW occupies its line's
      // L2 slice — a device-wide serialization resource tracked separately
      // from per-warp latency.
      for (std::size_t u = 0; u < unique; ++u) {
        const std::uintptr_t line =
            addrs[u] / spec_.line_bytes * spec_.line_bytes;
        if (l2_.access(line))
          stats_.l2_bytes += spec_.line_bytes;
        else
          stats_.dram_bytes += spec_.line_bytes;
        if (atomic_seen_.insert(line).second)
          ledger_.atomic_lines.push_back(line);
      }
      stats_.global_transactions += unique;
      stats_.global_atomic_port_cycles +=
          static_cast<double>(n) * spec_.l2_atomic_cycles;
      return spec_.lat_global_atomic +
             static_cast<double>(max_collisions - 1) *
                 spec_.extra_global_atomic;
    }
    stats_.shared_bytes += bytes;
    // Port cycles: max_collisions serialized passes, each a lock/update/
    // unlock RMW sequence through the banked port.
    stats_.shared_transactions += static_cast<std::uint64_t>(
        spec_.shared_atomic_port_passes *
        static_cast<double>(max_collisions));
    return spec_.lat_shared_atomic +
           static_cast<double>(max_collisions - 1) *
               spec_.extra_shared_atomic;
  }

  /// Warp-wide register exchange. All live lanes must participate.
  double issue_shuffle(WarpRunner& warp, const LaneGroup& /*lanes*/,
                       std::size_t n) {
    int live = 0;
    for (int i = 0; i < warp.lane_count; ++i)
      if (!lanes_[static_cast<std::size_t>(warp.first_lane + i)].done)
        ++live;
    check(static_cast<int>(n) == live,
          "shuffle issued while some live lanes of the warp are not "
          "participating (divergent shuffle is undefined)");
    // Snapshot staging so later deposits don't race earlier reads.
    std::copy(std::begin(warp.state.shfl_staging),
              std::end(warp.state.shfl_staging),
              std::begin(warp.state.shfl_result));
    return spec_.lat_shuffle;
  }

  const DeviceSpec& spec_;
  const LaunchConfig& cfg_;
  SetAssocCache& l2_;  ///< empty when the block starts
  KernelStats& stats_;
  BlockLedger& ledger_;
  SetAssocCache roc_;
  std::unordered_set<std::uintptr_t> atomic_seen_;
  std::vector<std::byte> shared_arena_;
  std::vector<Lane> lanes_;
  std::vector<WarpRunner> warps_;
  int live_ = 0;
  double pending_arith_max_ = 0.0;
  double pending_control_max_ = 0.0;
  // Per-instruction scratch, never zeroed: each use reads only the entries
  // it has written.
  std::array<LaneGroup, kOpKinds> groups_;
  std::array<std::uintptr_t, 96> segs_;
  std::array<std::array<std::uintptr_t, 32>, 32> bank_words_;
  std::array<std::uintptr_t, 32> atomic_addrs_;
  std::array<int, 32> atomic_hits_;
  std::array<std::uint8_t, 64> atomic_slots_;  ///< zeroed by each use
};

/// The blocks of every pooled launch in flight (see the note at the top
/// of this file). A block function must not throw.
class BlockQueue {
 public:
  /// `threads` counts the launching thread: threads - 1 helpers start.
  explicit BlockQueue(unsigned threads) : threads_(threads) {
    helpers_.reserve(threads_ - 1);
    for (unsigned i = 1; i < threads_; ++i)
      helpers_.emplace_back([this] { help(); });
  }

  ~BlockQueue() {
    {
      const std::lock_guard lock(mu_);
      stopping_ = true;
    }
    work_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  BlockQueue(const BlockQueue&) = delete;
  BlockQueue& operator=(const BlockQueue&) = delete;

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Run block(b) for every b in [0, grid): the calling thread claims
  /// blocks until none is left, the helpers take the rest. Returns once
  /// every block has finished.
  void run(int grid, const std::function<void(int)>& block) {
    Launch launch{&block, grid};
    std::unique_lock lock(mu_);
    open_.push_back(&launch);
    work_.notify_all();
    while (launch.next < launch.grid) {
      const int b = claim(launch);
      lock.unlock();
      block(b);
      lock.lock();
      ++launch.done;
    }
    launch.finished.wait(lock, [&] { return launch.done == launch.grid; });
  }

 private:
  struct Launch {
    const std::function<void(int)>* block;
    int grid;
    int next = 0;  ///< first unclaimed block
    int done = 0;  ///< blocks finished
    std::condition_variable finished{};
  };

  /// Claim the next block of `launch`; caller holds mu_. A launch leaves
  /// the open list with its last claim, so nobody reads it after its
  /// launching thread returns.
  int claim(Launch& launch) {
    const int b = launch.next++;
    if (launch.next == launch.grid)
      open_.erase(std::find(open_.begin(), open_.end(), &launch));
    return b;
  }

  void help() {
    std::unique_lock lock(mu_);
    for (;;) {
      work_.wait(lock, [&] { return stopping_ || !open_.empty(); });
      if (stopping_) return;
      Launch& launch = *open_.front();
      const int b = claim(launch);
      lock.unlock();
      (*launch.block)(b);
      lock.lock();
      // Notify under the lock: the launching thread cannot return, and
      // destroy `launch`, before this thread lets go of mu_.
      if (++launch.done == launch.grid) launch.finished.notify_one();
    }
  }

  const unsigned threads_;
  std::mutex mu_;
  std::condition_variable work_;  ///< an open launch, or stopping_
  std::deque<Launch*> open_;      ///< launches with unclaimed blocks
  bool stopping_ = false;
  std::vector<std::thread> helpers_;  ///< last: they use the members above
};

/// Threads per pooled launch; read once, when the queue is created.
unsigned& requested_async_workers() {
  static unsigned count = 0;  // 0 = hardware concurrency
  return count;
}

BlockQueue& block_queue() {
  static BlockQueue queue(
      requested_async_workers() != 0
          ? requested_async_workers()
          : std::max(1u, std::thread::hardware_concurrency()));
  return queue;
}

}  // namespace

void set_async_worker_count(unsigned n) { requested_async_workers() = n; }

unsigned async_worker_count() { return block_queue().threads(); }

void run_tasks(int n, const std::function<void(int)>& task) {
  if (n > 0) block_queue().run(n, task);
}

Device::Device(DeviceSpec spec) : spec_(std::move(spec)) {}

KernelStats Device::launch(const LaunchConfig& cfg, const KernelBody& body) {
  return execute_launch(cfg, body, /*pooled=*/false);
}

KernelStats Device::execute_launch(const LaunchConfig& cfg,
                                   const KernelBody& body, bool pooled) {
  check(cfg.grid_dim > 0, "launch: grid_dim must be positive");
  check(cfg.block_dim > 0 &&
            cfg.block_dim <= spec_.max_threads_per_block,
        "launch: block_dim out of range");
  check(cfg.shared_bytes <= spec_.shared_mem_per_block_cap,
        "launch: shared_bytes exceeds per-block cap");
  // Chaos hook: may stall the launch or throw a typed DeviceError before
  // anything executes — the device is left exactly as it was.
  if (fault_) fault_->on_launch_begin();
  const auto wall_start = std::chrono::steady_clock::now();

  const int grid = cfg.grid_dim;
  std::vector<KernelStats> block_stats(static_cast<std::size_t>(grid));
  std::vector<BlockLedger> ledgers(static_cast<std::size_t>(grid));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(grid));

  // Block functions must not throw (the queue does not catch); the
  // lowest-block-id error is rethrown once every block has finished.
  const std::function<void(int)> run_block = [&](int b) {
    const auto i = static_cast<std::size_t>(b);
    try {
      // Each thread keeps one L2 scratch and empties it for every block.
      thread_local SetAssocCache l2(spec_.l2_bytes, spec_.l2_ways,
                                    spec_.line_bytes);
      l2.reset(spec_.l2_bytes, spec_.l2_ways, spec_.line_bytes);
      BlockExecutor exec(spec_, cfg, l2, block_stats[i], ledgers[i]);
      exec.run(b, body);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (pooled && grid > 1) {
    block_queue().run(grid, run_block);
  } else {
    for (int b = 0; b < grid; ++b) run_block(b);
  }

  for (const std::exception_ptr& err : errors)
    if (err) std::rethrow_exception(err);

  KernelStats stats;
  stats.grid_dim = cfg.grid_dim;
  stats.block_dim = cfg.block_dim;
  stats.shared_bytes_per_block = cfg.shared_bytes;
  stats.regs_per_thread = cfg.regs_per_thread;
  stats.launches = 1;

  std::unordered_set<std::uintptr_t> atomic_union;
  for (int b = 0; b < grid; ++b) {
    const auto i = static_cast<std::size_t>(b);
    stats.merge(block_stats[i]);
    for (const std::uintptr_t line : ledgers[i].atomic_lines)
      if (atomic_union.insert(line).second) ++stats.atomic_distinct_lines;
  }
  // Chaos hook: ECC-style corruption throws here, before the launch is
  // counted — a failed launch leaves the device as it was, so a retry
  // reproduces the fault-free counters exactly.
  if (fault_) fault_->on_launch_stats(stats);
  ++launches_done_;
  if (observer_) {
    LaunchRecord rec;
    rec.cfg = cfg;
    rec.stats = &stats;
    rec.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
    rec.pooled = pooled;
    observer_(rec);
  }
  return stats;
}

}  // namespace tbs::vgpu
