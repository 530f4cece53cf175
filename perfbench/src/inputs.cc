#include "inputs.h"

#include <cmath>
#include <cstdlib>

#include "gen/mallows.h"
#include "gen/score_dist.h"
#include "rank/permutation.h"

namespace rankties::perfbench {
namespace {

RawList RawOf(const BucketOrder& order) {
  RawList raw(order.n());
  for (std::size_t e = 0; e < raw.size(); ++e) {
    raw[e] = order.BucketOf(static_cast<ElementId>(e));
  }
  return raw;
}

}  // namespace

std::vector<RawList> MallowsLists(std::size_t m, std::size_t n,
                                  std::size_t min_buckets,
                                  std::size_t max_buckets, Rng& rng) {
  const Permutation center = Permutation::Random(n, rng);
  // Stratified draw: list i takes a point of stratum strata.At(i), so every
  // seed spreads bucket counts (and hence kernel paths) the same way.
  const Permutation strata = Permutation::Random(m, rng);
  const double lo = std::log(static_cast<double>(min_buckets));
  const double hi = std::log(static_cast<double>(max_buckets));
  std::vector<RawList> lists;
  lists.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double stratum =
        (static_cast<double>(strata.At(static_cast<ElementId>(i))) +
         rng.UniformReal()) /
        static_cast<double>(m);
    const auto buckets = static_cast<std::size_t>(
        std::lround(std::exp(lo + stratum * (hi - lo))));
    lists.push_back(RawOf(QuantizedMallows(center, 0.95, buckets, rng)));
  }
  return lists;
}

std::vector<RawList> SkewedLists(std::size_t m, std::size_t n, Rng& rng) {
  std::vector<RawList> lists;
  lists.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    SkewedOrderConfig config;
    if (i % 2 == 0) {
      config.distribution = ScoreDistribution::kPareto;
      config.pareto_shape = 1.2;
    } else {
      config.distribution = ScoreDistribution::kNormalSkewed;
      config.skew_shape = 6.0;
    }
    config.quantization = 48;
    StatusOr<BucketOrder> order = SkewedScoreOrder(n, config, rng);
    if (!order.ok()) std::abort();  // fixed, valid config
    lists.push_back(RawOf(*order));
  }
  return lists;
}

StatusOr<std::vector<BucketOrder>> Ingest(const std::vector<RawList>& raw) {
  std::vector<BucketOrder> lists;
  lists.reserve(raw.size());
  for (const RawList& list : raw) {
    StatusOr<BucketOrder> order = BucketOrder::FromBucketIndex(list);
    if (!order.ok()) return order.status();
    lists.push_back(std::move(*order));
  }
  return lists;
}

}  // namespace rankties::perfbench
