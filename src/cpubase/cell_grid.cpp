#include "cpubase/cell_grid.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <mutex>

#include "common/error.hpp"

namespace tbs::cpubase {

namespace {

/// Cells per axis never exceed this, so grid coordinates stay below 2^20
/// and the rounding bounds below hold with room to spare.
constexpr std::size_t kMaxAxisCells = std::size_t{1} << 20;

/// kNN grids hold about this many points per cell: enough that the first
/// shell around a point usually holds its k neighbours, few enough that a
/// shell is cheap.
constexpr std::size_t kKnnPointsPerCell = 4;

/// A uniform grid of cubic cells over a point set's bounding box.
///
/// Exactness rests on one mapping. The grid coordinate of a value v on
/// axis a is t = (double(v) - lo[a]) * inv, rounded twice in double, with
/// inv = 1/side rounded once: t = ((v - lo)/side)(1 + eta), |eta| < 2^-51.
/// A point's cell on that axis is floor(t), with the top cells merged into
/// the last (so cells are monotone in v). Since t < 2^20 + 1, for two
/// points p, q:  (v_q - v_p) / side >= t_q - t_p - 2^-28.
struct Grid {
  std::array<double, 3> lo{};
  double side = std::numeric_limits<double>::infinity();
  double inv = 0.0;
  std::array<std::size_t, 3> dims{1, 1, 1};

  [[nodiscard]] std::size_t cells() const {
    return dims[0] * dims[1] * dims[2];
  }
  /// Whether any pair is outside some point's 27-cell stencil.
  [[nodiscard]] bool prunes() const {
    return dims[0] > 3 || dims[1] > 3 || dims[2] > 3;
  }
  [[nodiscard]] double coord(std::size_t a, float v) const {
    return (static_cast<double>(v) - lo[a]) * inv;
  }
  [[nodiscard]] std::size_t cell(std::size_t a, float v) const {
    const double t = coord(a, v);
    const auto top = static_cast<double>(dims[a] - 1);
    return t >= top ? dims[a] - 1 : static_cast<std::size_t>(t);
  }
};

/// The grid over `pts` whose cells have side at least `min_side`, with at
/// most `max_cells` cells. A zero extent on every axis, or a side that is
/// not finite, gives one cell.
Grid make_grid(const PointsSoA& pts, double min_side, std::size_t max_cells) {
  Grid g;
  const auto [lo, hi] = pts.bounding_box();
  g.lo = {lo.x, lo.y, lo.z};
  const std::array<double, 3> extent = {
      static_cast<double>(hi.x) - lo.x, static_cast<double>(hi.y) - lo.y,
      static_cast<double>(hi.z) - lo.z};
  double volume = 1.0;
  int axes = 0;
  for (const double e : extent)
    if (e > 0.0) {
      volume *= e;
      ++axes;
    }
  if (axes == 0 || !(min_side < std::numeric_limits<double>::infinity()))
    return g;
  // Start from cells of the volume a max_cells grid would give, and widen
  // them until the grid fits; the count is capped at O(N), because a grid
  // of far more cells than points spends its time walking empty cells.
  double side = std::max(
      min_side, std::pow(volume / static_cast<double>(max_cells), 1.0 / axes));
  for (;;) {
    bool fits = true;
    std::size_t cells = 1;
    for (std::size_t a = 0; a < 3; ++a) {
      const double across = extent[a] / side;
      if (!(across < static_cast<double>(kMaxAxisCells))) {
        fits = false;
        break;
      }
      g.dims[a] = static_cast<std::size_t>(across) + 1;
      cells *= g.dims[a];
    }
    if (fits && cells <= max_cells) break;
    side *= 1.25;
  }
  g.side = side;
  g.inv = 1.0 / side;
  return g;
}

/// Points in cell order (counting sort, stable): cell c holds sorted
/// positions [start[c], start[c + 1]); `id` maps a position back to the
/// caller's index.
struct CellLists {
  Grid grid;
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> id;
  std::vector<float> x, y, z;
};

CellLists bin(const PointsSoA& pts, const Grid& g) {
  const std::size_t n = pts.size();
  check(n <= std::numeric_limits<std::uint32_t>::max(),
        "cell grid: more points than 32-bit indices address");
  CellLists cl;
  cl.grid = g;
  std::vector<std::size_t> cell_of(n);
  cl.start.assign(g.cells() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Point3 p = pts[i];
    cell_of[i] = (g.cell(2, p.z) * g.dims[1] + g.cell(1, p.y)) * g.dims[0] +
                 g.cell(0, p.x);
    ++cl.start[cell_of[i] + 1];
  }
  for (std::size_t c = 0; c < g.cells(); ++c) cl.start[c + 1] += cl.start[c];
  std::vector<std::uint32_t> next(cl.start.begin(), cl.start.end() - 1);
  cl.id.resize(n);
  cl.x.resize(n);
  cl.y.resize(n);
  cl.z.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t at = next[cell_of[i]]++;
    const Point3 p = pts[i];
    cl.id[at] = static_cast<std::uint32_t>(i);
    cl.x[at] = p.x;
    cl.y[at] = p.y;
    cl.z[at] = p.z;
  }
  return cl;
}

/// Smallest cell side for the radius test every PCF and join loop shares,
/// dist2(a, b) < r2 with r2 = float(r*r). Let R = sqrt(r2), u = 2^-24. A
/// counted pair has, on each axis, fl(dx)^2 rounded <= the rounded sum
/// < r2, so |fl(dx)| < R(1+u)^(1/2) + 2^-75 (subnormal squares lose at
/// most 2^-150), and the exact difference is within (1+u) of fl(dx):
/// |dx| < R(1 + 2^-22) + 2^-74. Two points whose cells differ by two or
/// more on an axis are at least side(1 - 2^-28) apart there (see Grid),
/// so side = R(1 + 2^-16) + 2^-64 never prunes a counted pair. A NaN or
/// infinite r2 gives an infinite side: one cell, the brute loop.
double pair_test_side(double radius) {
  const auto r2 = static_cast<float>(radius * radius);
  return std::sqrt(static_cast<double>(r2)) * (1.0 + 0x1p-16) + 0x1p-64;
}

/// The grid for a radius-r pair test over `pts`: at most one cell per
/// point.
Grid pair_test_grid(const PointsSoA& pts, double radius) {
  return make_grid(pts, pair_test_side(radius), pts.size());
}

/// Calls visit(p, a, b) for each point p of cell c (a sorted position) and
/// each run [a, b) of sorted positions p must be compared with so that
/// every pair of points in neighbouring cells is visited exactly once
/// over all cells. Cells are numbered x fastest, so a row of three
/// x-neighbours is one contiguous run; the forward half of the stencil is
/// the rest of p's own row of cells (positions after p, through cell
/// x+1), the row y+1 in the same z-plane, and the three rows y-1..y+1 in
/// plane z+1.
template <typename Visit>
void forward_runs(const CellLists& cl, std::size_t c, Visit&& visit) {
  const Grid& g = cl.grid;
  const std::size_t cx = c % g.dims[0];
  const std::size_t cy = (c / g.dims[0]) % g.dims[1];
  const std::size_t cz = c / (g.dims[0] * g.dims[1]);
  const std::size_t x0 = cx == 0 ? 0 : cx - 1;
  const std::size_t x1 = std::min(cx + 1, g.dims[0] - 1);
  std::array<std::pair<std::uint32_t, std::uint32_t>, 4> runs;
  std::size_t nruns = 0;
  const auto add_row = [&](std::size_t y, std::size_t z) {
    const std::size_t row = (z * g.dims[1] + y) * g.dims[0];
    runs[nruns++] = {cl.start[row + x0], cl.start[row + x1 + 1]};
  };
  if (cy + 1 < g.dims[1]) add_row(cy + 1, cz);
  if (cz + 1 < g.dims[2])
    for (std::size_t y = cy == 0 ? 0 : cy - 1;
         y <= std::min(cy + 1, g.dims[1] - 1); ++y)
      add_row(y, cz + 1);
  const std::uint32_t own_end = cl.start[c - cx + x1 + 1];
  for (std::uint32_t p = cl.start[c]; p < cl.start[c + 1]; ++p) {
    visit(p, p + 1, own_end);
    for (std::size_t r = 0; r < nruns; ++r)
      visit(p, runs[r].first, runs[r].second);
  }
}

}  // namespace

std::uint64_t cpu_pcf_grid(ThreadPool& pool, const PointsSoA& pts,
                           double radius) {
  check(!pts.empty(), "cpu_pcf_grid: empty point set");
  const Grid g = pair_test_grid(pts, radius);
  if (!g.prunes()) return cpu_pcf_tiled(pool, pts, radius);
  const CellLists cl = bin(pts, g);
  const auto r2 = static_cast<float>(radius * radius);
  const float* xs = cl.x.data();
  const float* ys = cl.y.data();
  const float* zs = cl.z.data();

  std::vector<std::uint64_t> partial(pool.size(), 0);
  parallel_for(
      pool, 0, g.cells(),
      [&](unsigned id, std::size_t lo, std::size_t hi) {
        std::uint64_t count = 0;
        for (std::size_t c = lo; c < hi; ++c)
          forward_runs(cl, c, [&](std::uint32_t p, std::uint32_t a,
                                  std::uint32_t b) {
            const float xi = xs[p];
            const float yi = ys[p];
            const float zi = zs[p];
            std::uint64_t hits = 0;
            for (std::uint32_t q = a; q < b; ++q) {
              const float dx = xi - xs[q];
              const float dy = yi - ys[q];
              const float dz = zi - zs[q];
              hits += (dx * dx + dy * dy + dz * dz < r2) ? 1u : 0u;
            }
            count += hits;
          });
        partial[id] += count;
      });

  std::uint64_t total = 0;
  for (const auto c : partial) total += c;
  return total;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> cpu_distance_join_grid(
    ThreadPool& pool, const PointsSoA& pts, double radius) {
  if (pts.empty()) return {};
  const Grid g = pair_test_grid(pts, radius);
  if (!g.prunes()) return cpu_distance_join(pool, pts, radius);
  const CellLists cl = bin(pts, g);
  const auto r2 = static_cast<float>(radius * radius);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  std::mutex out_mutex;

  parallel_for(
      pool, 0, g.cells(),
      [&](unsigned /*id*/, std::size_t lo, std::size_t hi) {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> local;
        for (std::size_t c = lo; c < hi; ++c)
          forward_runs(cl, c, [&](std::uint32_t p, std::uint32_t a,
                                  std::uint32_t b) {
            const Point3 pi{cl.x[p], cl.y[p], cl.z[p]};
            for (std::uint32_t q = a; q < b; ++q)
              if (dist2(pi, Point3{cl.x[q], cl.y[q], cl.z[q]}) < r2)
                local.push_back(std::minmax(cl.id[p], cl.id[q]));
          });
        const std::lock_guard lock(out_mutex);
        out.insert(out.end(), local.begin(), local.end());
      });
  return out;
}

std::vector<std::vector<float>> cpu_knn_grid(ThreadPool& pool,
                                             const PointsSoA& pts, int k) {
  check(k >= 1, "cpu_knn_grid: k must be >= 1");
  check(pts.size() > static_cast<std::size_t>(k),
        "cpu_knn_grid: need more points than k");
  const std::size_t n = pts.size();
  const Grid g = make_grid(pts, 0.0, std::max<std::size_t>(
                                         1, n / kKnnPointsPerCell));
  if (!g.prunes()) return cpu_knn(pool, pts, k);
  const CellLists cl = bin(pts, g);
  const auto kk = static_cast<std::size_t>(k);
  std::vector<std::vector<float>> result(n);

  parallel_for(
      pool, 0, g.cells(),
      [&](unsigned /*id*/, std::size_t lo, std::size_t hi) {
        // A max-heap of the k smallest dist2 values seen so far.
        std::vector<float> heap;
        heap.reserve(kk);
        for (std::size_t c = lo; c < hi; ++c) {
          const std::array<std::size_t, 3> cc = {
              c % g.dims[0], (c / g.dims[0]) % g.dims[1],
              c / (g.dims[0] * g.dims[1])};
          for (std::uint32_t p = cl.start[c]; p < cl.start[c + 1]; ++p) {
            const Point3 pi{cl.x[p], cl.y[p], cl.z[p]};
            const std::array<double, 3> t = {
                g.coord(0, pi.x), g.coord(1, pi.y), g.coord(2, pi.z)};
            heap.clear();
            const auto offer = [&](std::uint32_t a, std::uint32_t b) {
              for (std::uint32_t q = a; q < b; ++q) {
                if (q == p) continue;  // exclude self, keep duplicates
                const float d2 = dist2(pi, Point3{cl.x[q], cl.y[q], cl.z[q]});
                if (heap.size() < kk) {
                  heap.push_back(d2);
                  std::push_heap(heap.begin(), heap.end());
                } else if (d2 < heap.front()) {
                  std::pop_heap(heap.begin(), heap.end());
                  heap.back() = d2;
                  std::push_heap(heap.begin(), heap.end());
                }
              }
            };
            // Offer the cells of x-range [x0, x1] in row (y, z).
            const auto offer_row = [&](std::size_t x0, std::size_t x1,
                                       std::size_t y, std::size_t z) {
              const std::size_t row = (z * g.dims[1] + y) * g.dims[0];
              offer(cl.start[row + x0], cl.start[row + x1 + 1]);
            };
            for (std::size_t s = 0;; ++s) {
              // Shell s: the cells at Chebyshev distance exactly s.
              const auto lo_of = [&](std::size_t a) {
                return cc[a] >= s ? cc[a] - s : 0;
              };
              const auto hi_of = [&](std::size_t a) {
                return std::min(cc[a] + s, g.dims[a] - 1);
              };
              for (std::size_t z = lo_of(2); z <= hi_of(2); ++z)
                for (std::size_t y = lo_of(1); y <= hi_of(1); ++y) {
                  const bool face = z + s == cc[2] || z == cc[2] + s ||
                                    y + s == cc[1] || y == cc[1] + s;
                  if (face) {
                    offer_row(lo_of(0), hi_of(0), y, z);
                    continue;
                  }
                  if (cc[0] >= s) offer_row(cc[0] - s, cc[0] - s, y, z);
                  if (cc[0] + s < g.dims[0])
                    offer_row(cc[0] + s, cc[0] + s, y, z);
                }
              // Every unvisited point lies beyond a face of the visited
              // block on some axis, so by Grid's bound it is at least
              // reach = (gap - 2^-28) * side from p (the slack also covers
              // rounding in gap). Its rounded dist2 loses at most five
              // roundings of u = 2^-24 and 2^-149 to subnormals, so it is
              // at least reach^2 (1 - 2^-20) - 2^-140: once the heap's
              // largest value is no larger, no unvisited point can enter
              // the k smallest (a tie leaves the row unchanged).
              double gap = std::numeric_limits<double>::infinity();
              for (std::size_t a = 0; a < 3; ++a) {
                if (cc[a] > s)
                  gap = std::min(gap, t[a] - static_cast<double>(cc[a] - s));
                if (cc[a] + s + 1 < g.dims[a])
                  gap = std::min(gap,
                                 static_cast<double>(cc[a] + s + 1) - t[a]);
              }
              if (gap == std::numeric_limits<double>::infinity()) break;
              if (heap.size() == kk) {
                const double reach = std::max(0.0, gap - 0x1p-28) * g.side;
                if (static_cast<double>(heap.front()) <=
                    reach * reach * (1.0 - 0x1p-20) - 0x1p-140)
                  break;
              }
            }
            std::sort_heap(heap.begin(), heap.end());
            std::vector<float> row(heap.begin(), heap.end());
            for (auto& v : row) v = std::sqrt(v);
            result[cl.id[p]] = std::move(row);
          }
        }
      });
  return result;
}

double pcf_grid_pairs(const PointsSoA& pts, double radius) {
  const auto n = static_cast<double>(pts.size());
  if (pts.size() < 2) return 0.0;
  const Grid g = pair_test_grid(pts, radius);
  if (!g.prunes()) return n * (n - 1.0) / 2.0;
  const CellLists cl = bin(pts, g);
  double pairs = 0.0;
  for (std::size_t c = 0; c < g.cells(); ++c)
    forward_runs(cl, c, [&](std::uint32_t, std::uint32_t a, std::uint32_t b) {
      if (b > a) pairs += static_cast<double>(b - a);
    });
  return pairs;
}

double pair_grid_side(const PointsSoA& pts, double radius) {
  check(!pts.empty(), "pair_grid_side: empty point set");
  const Grid g = pair_test_grid(pts, radius);
  return g.prunes() ? g.side : std::numeric_limits<double>::infinity();
}

}  // namespace tbs::cpubase
