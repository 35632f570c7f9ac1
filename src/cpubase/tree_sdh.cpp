#include "cpubase/tree_sdh.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace tbs::cpubase {

namespace {

/// Octree node over an index range of a reordered point array.
struct Node {
  Point3 lo, hi;       // AABB
  std::uint32_t begin = 0, end = 0;  // index range [begin, end)
  int children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
  // Set at build time when any octant is populated. Inferring leaf-ness
  // from children[0] alone misclassifies nodes whose first octant happens
  // to be empty (common on clustered data) and silently brute-forces the
  // whole subtree; scanning all eight children on every resolve call is
  // too hot, so the flag is precomputed.
  bool leaf = true;
  [[nodiscard]] std::uint32_t count() const { return end - begin; }
  [[nodiscard]] bool is_leaf() const { return leaf; }
};

struct Builder {
  std::vector<Node> nodes;
  std::vector<std::uint32_t> index;  // permutation of point ids
  const PointsSoA& pts;
  int leaf_size;

  Builder(const PointsSoA& p, int leaf)
      : index(p.size()), pts(p), leaf_size(leaf) {
    for (std::uint32_t i = 0; i < p.size(); ++i) index[i] = i;
  }

  /// Tight AABB of an index range.
  void fit(Node& node) {
    Point3 lo{1e30f, 1e30f, 1e30f}, hi{-1e30f, -1e30f, -1e30f};
    for (std::uint32_t k = node.begin; k < node.end; ++k) {
      const Point3 p = pts[index[k]];
      lo.x = std::min(lo.x, p.x);
      lo.y = std::min(lo.y, p.y);
      lo.z = std::min(lo.z, p.z);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
      hi.z = std::max(hi.z, p.z);
    }
    node.lo = lo;
    node.hi = hi;
  }

  int build(std::uint32_t begin, std::uint32_t end) {
    const int id = static_cast<int>(nodes.size());
    nodes.push_back(Node{});
    nodes[id].begin = begin;
    nodes[id].end = end;
    fit(nodes[id]);
    if (end - begin <= static_cast<std::uint32_t>(leaf_size)) return id;

    const Point3 lo = nodes[id].lo;
    const Point3 hi = nodes[id].hi;
    const Point3 mid{(lo.x + hi.x) * 0.5f, (lo.y + hi.y) * 0.5f,
                     (lo.z + hi.z) * 0.5f};
    // Degenerate extent (all points identical): keep as leaf.
    if (dist2(lo, hi) == 0.0f) return id;

    const auto octant = [&](std::uint32_t pid) {
      const Point3 p = pts[pid];
      return (p.x >= mid.x ? 1 : 0) | (p.y >= mid.y ? 2 : 0) |
             (p.z >= mid.z ? 4 : 0);
    };
    // 8-way partition (stable counting sort over the range).
    std::array<std::uint32_t, 9> bucket_start{};
    {
      std::array<std::uint32_t, 8> counts{};
      for (std::uint32_t k = begin; k < end; ++k)
        ++counts[static_cast<std::size_t>(octant(index[k]))];
      std::uint32_t run = begin;
      for (int o = 0; o < 8; ++o) {
        bucket_start[static_cast<std::size_t>(o)] = run;
        run += counts[static_cast<std::size_t>(o)];
      }
      bucket_start[8] = run;
      std::vector<std::uint32_t> tmp(index.begin() + begin,
                                     index.begin() + end);
      auto cursor = bucket_start;
      for (const std::uint32_t pid : tmp)
        index[cursor[static_cast<std::size_t>(octant(pid))]++] = pid;
    }
    for (int o = 0; o < 8; ++o) {
      const std::uint32_t b = bucket_start[static_cast<std::size_t>(o)];
      const std::uint32_t e = bucket_start[static_cast<std::size_t>(o + 1)];
      if (b == e) continue;
      if (e - b == end - begin) return id;  // no split progress: leaf
      const int child = build(b, e);
      nodes[id].children[o] = child;
      nodes[id].leaf = false;
    }
    return id;
  }
};

/// Min / max distance between two AABBs.
double aabb_min_dist(const Node& a, const Node& b) {
  const auto axis = [](float alo, float ahi, float blo, float bhi) {
    if (bhi < alo) return static_cast<double>(alo - bhi);
    if (ahi < blo) return static_cast<double>(blo - ahi);
    return 0.0;
  };
  const double dx = axis(a.lo.x, a.hi.x, b.lo.x, b.hi.x);
  const double dy = axis(a.lo.y, a.hi.y, b.lo.y, b.hi.y);
  const double dz = axis(a.lo.z, a.hi.z, b.lo.z, b.hi.z);
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

double aabb_max_dist(const Node& a, const Node& b) {
  const auto axis = [](float alo, float ahi, float blo, float bhi) {
    return static_cast<double>(
        std::max(std::fabs(ahi - blo), std::fabs(bhi - alo)));
  };
  const double dx = axis(a.lo.x, a.hi.x, b.lo.x, b.hi.x);
  const double dy = axis(a.lo.y, a.hi.y, b.lo.y, b.hi.y);
  const double dz = axis(a.lo.z, a.hi.z, b.lo.z, b.hi.z);
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

class Resolver {
 public:
  Resolver(const Builder& b, Histogram& hist, TreeSdhStats& stats)
      : b_(b),
        hist_(hist),
        stats_(stats),
        counts_(hist.bucket_count(), 0),
        width_(hist.bucket_width()),
        buckets_(static_cast<int>(hist.bucket_count())) {
    // Materialize the permuted coordinates once so leaf loops run over
    // contiguous SoA ranges (the same layout trick the GPU kernels use).
    const std::size_t n = b.index.size();
    xs_.resize(n);
    ys_.resize(n);
    zs_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const Point3 p = b.pts[b.index[k]];
      xs_[k] = p.x;
      ys_[k] = p.y;
      zs_[k] = p.z;
    }
  }

  /// Fold the privately accumulated counts into the histogram.
  void flush() {
    for (std::size_t bidx = 0; bidx < counts_.size(); ++bidx)
      hist_.set_count(bidx, hist_[bidx] + counts_[bidx]);
  }

  void resolve_self(int id) {
    const Node& n = b_.nodes[static_cast<std::size_t>(id)];
    if (n.is_leaf()) {
      brute_self(n);
      return;
    }
    for (int i = 0; i < 8; ++i) {
      if (n.children[i] < 0) continue;
      resolve_self(n.children[i]);
      for (int j = i + 1; j < 8; ++j) {
        if (n.children[j] < 0) continue;
        resolve_pair(n.children[i], n.children[j]);
      }
    }
  }

  void resolve_pair(int ia, int ib) {
    ++stats_.node_pair_visits;
    const Node& a = b_.nodes[static_cast<std::size_t>(ia)];
    const Node& nb = b_.nodes[static_cast<std::size_t>(ib)];
    // Conservative guard band: per-pair distances are computed in float,
    // so a pair lying exactly on a bucket boundary can round to either
    // side; only bulk-resolve when the node interval clears the boundary
    // by a few ulps in both directions.
    const double raw_min = aabb_min_dist(a, nb);
    const double raw_max = aabb_max_dist(a, nb);
    const double eps = raw_max * 4e-7 + 1e-9;
    const double dmin = std::max(0.0, raw_min - eps);
    const double dmax = raw_max + eps;
    if (bucket_of(dmin) == bucket_of(dmax)) {
      // Every cross pair lands in the same bucket: bulk resolve.
      const std::uint64_t pairs =
          static_cast<std::uint64_t>(a.count()) * nb.count();
      counts_[static_cast<std::size_t>(bucket_of(dmin))] += pairs;
      stats_.resolved_pairs += pairs;
      return;
    }
    if (a.is_leaf() && nb.is_leaf()) {
      brute_cross(a, nb);
      return;
    }
    // Recurse into the node with the larger extent (classic dual-tree).
    const bool split_a =
        !a.is_leaf() &&
        (nb.is_leaf() || dist2(a.lo, a.hi) >= dist2(nb.lo, nb.hi));
    const Node& split = split_a ? a : nb;
    for (const int child : split.children) {
      if (child < 0) continue;
      resolve_pair(split_a ? child : ia, split_a ? ib : child);
    }
  }

 private:
  [[nodiscard]] int bucket_of(double v) const {
    return bucket_index(v, width_, buckets_);
  }

  void add_pair(float xi, float yi, float zi, std::uint32_t j) {
    const float dx = xi - xs_[j];
    const float dy = yi - ys_[j];
    const float dz = zi - zs_[j];
    const float d = std::sqrt(dx * dx + dy * dy + dz * dz);
    ++counts_[static_cast<std::size_t>(
        bucket_of(static_cast<double>(d)))];
  }

  void brute_self(const Node& n) {
    for (std::uint32_t i = n.begin; i < n.end; ++i) {
      const float xi = xs_[i];
      const float yi = ys_[i];
      const float zi = zs_[i];
      for (std::uint32_t j = i + 1; j < n.end; ++j) add_pair(xi, yi, zi, j);
    }
    stats_.brute_pairs +=
        static_cast<std::uint64_t>(n.count()) * (n.count() - 1) / 2;
  }

  void brute_cross(const Node& a, const Node& nb) {
    for (std::uint32_t i = a.begin; i < a.end; ++i) {
      const float xi = xs_[i];
      const float yi = ys_[i];
      const float zi = zs_[i];
      for (std::uint32_t j = nb.begin; j < nb.end; ++j)
        add_pair(xi, yi, zi, j);
    }
    stats_.brute_pairs +=
        static_cast<std::uint64_t>(a.count()) * nb.count();
  }

  const Builder& b_;
  Histogram& hist_;
  TreeSdhStats& stats_;
  std::vector<std::uint64_t> counts_;
  std::vector<float> xs_, ys_, zs_;
  double width_;
  int buckets_;
};

}  // namespace

Histogram tree_sdh(const PointsSoA& pts, double bucket_width,
                   std::size_t buckets, int leaf_size,
                   TreeSdhStats* stats) {
  check(!pts.empty(), "tree_sdh: empty point set");
  check(leaf_size >= 1, "tree_sdh: leaf_size must be >= 1");
  Histogram hist(bucket_width, buckets);
  Builder builder(pts, leaf_size);
  builder.build(0, static_cast<std::uint32_t>(pts.size()));

  TreeSdhStats local;
  Resolver resolver(builder, hist, local);
  resolver.resolve_self(0);
  resolver.flush();
  local.tree_nodes = builder.nodes.size();
  if (stats) *stats = local;
  return hist;
}

}  // namespace tbs::cpubase
