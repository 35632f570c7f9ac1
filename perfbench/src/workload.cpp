#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/datagen.hpp"
#include "common/rng.hpp"

namespace perfbench {

namespace serve = tbs::serve;

namespace {

// Every random choice of a schedule is stratified: a deck holds the exact
// mix of one block and is reshuffled when empty, and sizes are drawn one
// per stratum of each block. A short timed phase then sees nearly the same
// mix of work on every seed, and only the order and the points change.
template <typename T>
class Deck {
 public:
  Deck(std::vector<T> block, tbs::Rng& rng)
      : block_(std::move(block)), rng_(rng) {}

  T next() {
    if (pos_ == cur_.size()) {
      cur_ = block_;
      for (std::size_t i = cur_.size(); i > 1; --i) {
        const std::size_t j = rng_.uniform_index(i);
        const T tmp = cur_[i - 1];
        cur_[i - 1] = cur_[j];
        cur_[j] = tmp;
      }
      pos_ = 0;
    }
    return cur_[pos_++];
  }

 private:
  std::vector<T> block_;
  tbs::Rng& rng_;
  std::vector<T> cur_;
  std::size_t pos_ = 0;
};

/// Uniform draws in [0, 1), one per stratum of every block of `m`.
class Strata {
 public:
  Strata(std::size_t m, tbs::Rng& rng) : deck_(indices(m), rng), m_(m),
                                         rng_(rng) {}
  double next() {
    return (static_cast<double>(deck_.next()) + rng_.uniform()) /
           static_cast<double>(m_);
  }

 private:
  static std::vector<std::size_t> indices(std::size_t m) {
    std::vector<std::size_t> v(m);
    for (std::size_t i = 0; i < m; ++i) v[i] = i;
    return v;
  }
  Deck<std::size_t> deck_;
  std::size_t m_;
  tbs::Rng& rng_;
};

/// Log-uniform size in [lo, hi] from a stratified draw.
std::size_t log_uniform(Strata& s, double lo, double hi) {
  return static_cast<std::size_t>(std::lround(lo * std::pow(hi / lo, s.next())));
}

template <typename T>
std::vector<T> repeat(const T& v, std::size_t n) {
  return std::vector<T>(n, v);
}

template <typename T>
std::vector<T> concat(std::vector<T> a, const std::vector<T>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Histogram geometry whose buckets span the whole box.
serve::SdhQuery spanning_sdh(float box, int buckets) {
  const double diag = static_cast<double>(box) * std::sqrt(3.0);
  return serve::SdhQuery{diag / buckets, buckets};
}

Budget budget_for(const std::string& workload, unsigned nproc) {
  Budget b;
  b.nproc = std::max(1u, nproc);
  b.async_workers = b.nproc;
  if (workload == "vgpu-mixed") {
    b.devices = 2;
    b.streams_per_device = std::clamp<std::size_t>(b.nproc / 2, 1, 2);
    b.clients = std::min<std::size_t>(4, b.nproc);
  } else {
    b.cpu_workers = std::min<std::size_t>(2, b.nproc);
    b.cpu_threads = std::max(1u, b.nproc / static_cast<unsigned>(b.cpu_workers));
    b.clients = std::min<std::size_t>(workload == "cpu-radius" ? 2 : 4, b.nproc);
  }
  return b;
}

std::size_t add_dataset(Schedule& s, std::size_t n, float box, tbs::Rng& rng) {
  s.datasets.push_back(tbs::uniform_box(n, box, rng()));
  s.input_bytes += n * 3 * sizeof(float);
  return s.datasets.size() - 1;
}

// vgpu-mixed: the paper's kernels on the simulated GPU; fresh uniform
// datasets, N log-uniform in 512-4096 (kNN 512-2048).
void make_vgpu_mixed(Schedule& s, tbs::Rng& rng) {
  constexpr float kBox = 10.0f;
  constexpr std::size_t kItems = 1600;
  const std::vector<double> radii{0.5, 1.0, 2.0};
  const std::vector<int> buckets{64, 256};
  const std::size_t threshold = s.config.plan_threshold;

  Deck<char> kinds(concat(concat(repeat('s', 7), repeat('p', 7)),
                          concat(repeat('j', 3), repeat('k', 3))),
                   rng);
  Deck<int> bucket_deck(buckets, rng);
  Deck<double> radius_deck(radii, rng);
  Deck<double> join_radius(radii, rng);
  Deck<int> knn_k({4, 8}, rng);
  Deck<int> join_variant({0, 1}, rng);
  // One SDH/PCF query in five is sharded four ways.
  Deck<bool> sharded(concat(repeat(false, 4), repeat(true, 1)), rng);
  // Sizes are stratified separately for each kind of work (kind, sharded,
  // join variant, k), so the costly classes get the same size mix on
  // every seed.
  std::map<int, Strata> sizes;
  const auto size_for = [&](int cell, double lo, double hi) {
    return log_uniform(sizes.try_emplace(cell, 10, rng).first->second, lo, hi);
  };
  // About one planned query in twenty asks for a shape outside the
  // catalogue, so plan calibration also runs in the timed phase. Planned
  // queries are about a fifth of all, so every 100th item is such a query,
  // at fixed positions: each run pays for the same number of calibrations.
  constexpr std::size_t kOffEvery = 100;
  std::size_t off_count = 0;

  for (std::size_t i = 0; i < kItems; ++i) {
    Item it;
    const bool off = i % kOffEvery == kOffEvery / 2;
    const char kind = off ? (off_count++ % 2 == 0 ? 's' : 'p') : kinds.next();
    std::size_t n = 0;
    if (off) {
      n = threshold + 1 + rng.uniform_index(4096 - threshold);
    } else if (kind == 's' || kind == 'p') {
      if (sharded.next()) it.shards = 4;
      n = size_for((kind == 's' ? 0 : 2) + (it.shards > 0 ? 1 : 0), 512, 4096);
    }
    if (kind == 's') {
      it.query = off ? spanning_sdh(kBox, 80 + static_cast<int>(
                                                rng.uniform_index(150)))
                     : spanning_sdh(kBox, bucket_deck.next());
    } else if (kind == 'p') {
      it.query = serve::PcfQuery{off ? rng.uniform(0.6, 1.9)
                                     : radius_deck.next()};
    } else if (kind == 'j') {
      const int variant = join_variant.next();
      n = size_for(4 + variant, 512, 4096);
      it.query = serve::JoinQuery{join_radius.next(),
                                  variant == 0
                                      ? tbs::kernels::JoinVariant::TwoPhase
                                      : tbs::kernels::JoinVariant::GlobalCursor};
    } else {
      const int k = knn_k.next();
      n = size_for(6 + k, 512, 2048);
      it.query = serve::KnnQuery{k};
    }
    it.dataset = add_dataset(s, n, kBox, rng);
    s.items.push_back(std::move(it));
  }
  // Priming: every catalogue shape once, at a size the engine plans.
  const std::size_t prime = add_dataset(s, threshold + 512, kBox, rng);
  for (const int b : buckets)
    s.priming.push_back(Item{spanning_sdh(kBox, b), prime, 0});
  for (const double r : radii)
    s.priming.push_back(Item{serve::PcfQuery{r}, prime, 0});
}

// cpu-radius: low-density radius queries on the real CPU. The box is so
// sparse that a point has only a few neighbours within r, so brute-force
// PCF and join examine every pair although almost none are within r; SDH
// is the control, where every pair lands in a bucket. Sizes are 4k-16k
// points: at 8k-32k the loop answered about 3 queries a second on a 4-core
// host, too few for a p90 within one run.
void make_cpu_radius(Schedule& s, tbs::Rng& rng) {
  constexpr float kBox = 80.0f;
  constexpr std::size_t kItems = 800;
  const std::vector<double> radii{1.0, 2.0, 3.0};
  const std::vector<int> buckets{64, 256};

  Deck<char> kinds(concat(concat(repeat('p', 3), repeat('j', 3)),
                          concat(repeat('s', 3), repeat('k', 1))),
                   rng);
  Strata n_sdh(10, rng), n_pcf(10, rng), n_join(10, rng);
  std::map<int, Strata> n_knn;
  Deck<int> bucket_deck(buckets, rng);
  Deck<double> radius_deck(radii, rng);
  Deck<double> join_radius(radii, rng);
  Deck<int> knn_k({4, 8}, rng);

  for (std::size_t i = 0; i < kItems; ++i) {
    Item it;
    const char kind = kinds.next();
    std::size_t n = 0;
    if (kind == 's') {
      n = log_uniform(n_sdh, 4200, 16000);
      it.query = spanning_sdh(kBox, bucket_deck.next());
    } else if (kind == 'p') {
      n = log_uniform(n_pcf, 4200, 16000);
      it.query = serve::PcfQuery{radius_deck.next()};
    } else if (kind == 'j') {
      n = log_uniform(n_join, 4200, 16000);
      it.query = serve::JoinQuery{join_radius.next(),
                                  tbs::kernels::JoinVariant::TwoPhase};
    } else {
      const int k = knn_k.next();
      n = log_uniform(n_knn.try_emplace(k, 10, rng).first->second, 4200, 8000);
      it.query = serve::KnnQuery{k};
    }
    it.dataset = add_dataset(s, n, kBox, rng);
    s.items.push_back(std::move(it));
  }
  // Priming: every catalogue shape at both plan-cache size buckets the
  // timed sizes fall into (4200-8192 and 8193-16000).
  for (const std::size_t n : {std::size_t{4300}, std::size_t{8300}}) {
    const std::size_t prime = add_dataset(s, n, kBox, rng);
    for (const int b : buckets)
      s.priming.push_back(Item{spanning_sdh(kBox, b), prime, 0});
    for (const double r : radii)
      s.priming.push_back(Item{serve::PcfQuery{r}, prime, 0});
  }
}

// hot-audited: repeat-heavy analyst traffic with integrity audits on. SDH
// and PCF over eight fixed catalogues, Zipf-skewed over (catalogue x
// shape), with a result cache smaller than the hot set; about 8% of the
// queries use a fresh radius, which misses, fills and evicts.
void make_hot_audited(Schedule& s, tbs::Rng& rng) {
  constexpr float kBox = 100.0f;
  constexpr std::size_t kItems = 4000;
  constexpr std::size_t kCatalogues = 8;
  constexpr double kZipf = 1.2;
  const std::vector<double> radii{1.0, 2.0, 3.0};
  const std::vector<int> buckets{64, 256};

  // Catalogues hold 16.5k-20k points, in a mixed size order so the most
  // popular catalogues are not simply the smallest. The band is narrow
  // because p90 is an SDH miss, whose cost grows with the square of the
  // size: a wider band made p90 depend on which catalogues missed.
  std::vector<std::size_t> catalogue(kCatalogues);
  for (std::size_t c = 0; c < kCatalogues; ++c)
    catalogue[c] = add_dataset(s, 16500 + ((c * 3) % kCatalogues) * 500,
                               kBox, rng);

  // Popularity rank -> (catalogue, shape): the shape changes fastest, so
  // the hottest keys cover every shape, SDH and PCF alike. The mapping is
  // fixed; the seed changes the points and the order of the draws.
  const std::vector<serve::Query> shapes{
      serve::PcfQuery{radii[0]}, spanning_sdh(kBox, buckets[0]),
      serve::PcfQuery{radii[1]}, spanning_sdh(kBox, buckets[1]),
      serve::PcfQuery{radii[2]}};
  std::vector<Item> keys;
  for (std::size_t r = 0; r < kCatalogues * shapes.size(); ++r)
    keys.push_back(Item{shapes[r % shapes.size()],
                        catalogue[(r / shapes.size()) % kCatalogues], 0});
  std::vector<double> cdf(keys.size());
  double total = 0.0;
  for (std::size_t r = 0; r < keys.size(); ++r)
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
  double acc = 0.0;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipf) / total;
    cdf[r] = acc;
  }
  const auto draw = [&](double u) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return keys[std::min<std::size_t>(it - cdf.begin(), keys.size() - 1)];
  };

  // The draws follow the golden-ratio recurrence from a seeded start: each
  // key recurs at nearly even gaps of about 1/p, so the LRU hit ratio is
  // nearly the same on every seed while the sequence itself differs.
  const double golden = (std::sqrt(5.0) - 1.0) / 2.0;
  double u = rng.uniform();
  Deck<bool> fresh(concat(repeat(false, 23), repeat(true, 2)), rng);
  for (std::size_t i = 0; i < kItems; ++i) {
    u += golden;
    u -= std::floor(u);
    Item it = draw(u);
    if (fresh.next()) it.query = serve::PcfQuery{rng.uniform(1.05, 3.5)};
    s.items.push_back(std::move(it));
  }
  // Set-up answers the eight hottest keys: it primes the plan cache for
  // every shape and starts the timed phase with a warm result cache.
  for (std::size_t r = 0; r < 8; ++r) s.priming.push_back(keys[r]);
}

}  // namespace

Schedule make_schedule(const std::string& workload, std::uint64_t seed,
                       unsigned nproc) {
  Schedule s;
  s.workload = workload;
  s.budget = budget_for(workload, nproc);
  serve::QueryEngine::Config& cfg = s.config;
  cfg.devices = s.budget.devices;
  cfg.streams_per_device = s.budget.streams_per_device;
  cfg.cpu_workers = s.budget.cpu_workers;
  cfg.cpu_threads = s.budget.cpu_threads;
  tbs::Rng rng(seed);
  if (workload == "vgpu-mixed") {
    make_vgpu_mixed(s, rng);
  } else if (workload == "cpu-radius") {
    make_cpu_radius(s, rng);
  } else if (workload == "hot-audited") {
    cfg.audit_rate = 0.2;
    cfg.cache_capacity = 24;  // the hot set is 40 (catalogue x shape) keys
    make_hot_audited(s, rng);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return s;
}

double pairs_of(std::size_t n) {
  const auto d = static_cast<double>(n);
  return d * (d - 1.0) / 2.0;
}

}  // namespace perfbench
