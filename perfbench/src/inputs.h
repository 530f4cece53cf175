#ifndef RANKTIES_PERFBENCH_SRC_INPUTS_H_
#define RANKTIES_PERFBENCH_SRC_INPUTS_H_

// Seeded input generation (gen/), run before any timing. Lists are handed
// to the workloads as raw bucket-index vectors — what a user's ingest
// receives — so turning them into library objects is part of set-up.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rank/bucket_order.h"
#include "util/rng.h"
#include "util/status.h"

namespace rankties::perfbench {

/// bucket_of[e] = bucket of element e, buckets numbered front to back.
using RawList = std::vector<BucketIndex>;

/// `m` quantized-Mallows lists (phi 0.95, shared random center) on `n`
/// elements. Bucket counts are drawn log-uniformly from
/// [min_buckets, max_buckets], one per stratum of that range.
std::vector<RawList> MallowsLists(std::size_t m, std::size_t n,
                                  std::size_t min_buckets,
                                  std::size_t max_buckets, Rng& rng);

/// `m` skewed lists on `n` elements, alternating Pareto (shape 1.2) and
/// skew-normal (shape 6) scores quantized to 48 levels.
std::vector<RawList> SkewedLists(std::size_t m, std::size_t n, Rng& rng);

/// Validating ingest of raw lists into BucketOrders.
StatusOr<std::vector<BucketOrder>> Ingest(const std::vector<RawList>& raw);

/// Deterministic per-workload seed stream.
inline std::uint64_t SeedFor(std::uint64_t seed, std::uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + salt;
}

}  // namespace rankties::perfbench

#endif  // RANKTIES_PERFBENCH_SRC_INPUTS_H_
