#include "core/prepared.h"

#include <gtest/gtest.h>

#include <vector>

#include "alloc_hook.h"
#include "core/footrule.h"
#include "core/hausdorff.h"
#include "core/pair_counts.h"
#include "core/profile_metrics.h"
#include "gen/random_orders.h"
#include "rank/bucket_order.h"
#include "util/rng.h"

namespace rankties {
namespace {

// A mixed bag of ranking shapes: varies n, bucket count (hits both the flat
// and the sort-fallback joint-histogram modes), and tie structure.
std::vector<BucketOrder> MixedOrders(Rng& rng) {
  std::vector<BucketOrder> orders;
  orders.push_back(BucketOrder());                 // n = 0
  orders.push_back(BucketOrder::SingleBucket(1));  // n = 1
  orders.push_back(BucketOrder::SingleBucket(40));
  for (const std::size_t n : {2, 3, 17, 40, 129}) {
    orders.push_back(BucketOrder::FromPermutation(
        Permutation::Random(n, rng)));  // all singletons -> sort fallback
    orders.push_back(RandomBucketOrder(n, rng));
    orders.push_back(RandomFewValued(n, 4.0, rng));  // few buckets -> flat
    orders.push_back(RandomTopK(n, n / 2, rng));
  }
  return orders;
}

void ExpectPreparedMatchesLegacy(const BucketOrder& sigma,
                                 const BucketOrder& tau,
                                 PairScratch& scratch) {
  const PreparedRanking ps(sigma);
  const PreparedRanking pt(tau);
  const PairCounts expected = ComputePairCounts(sigma, tau);
  EXPECT_EQ(ComputePairCounts(ps, pt, scratch), expected);
  EXPECT_EQ(TwiceKprof(ps, pt, scratch), TwiceKprof(sigma, tau));
  EXPECT_EQ(Kprof(ps, pt, scratch), Kprof(sigma, tau));
  EXPECT_EQ(KHausdorff(ps, pt, scratch), KHausdorff(sigma, tau));
  EXPECT_EQ(TwiceFprof(ps, pt), TwiceFprof(sigma, tau));
  EXPECT_EQ(Fprof(ps, pt), Fprof(sigma, tau));
  EXPECT_EQ(TwiceFHausdorff(ps, pt, scratch), TwiceFHausdorff(sigma, tau));
  EXPECT_EQ(FHausdorff(ps, pt, scratch), FHausdorff(sigma, tau));
  for (const double p : {0.0, 0.25, 0.5, 1.0}) {
    EXPECT_EQ(KendallP(ps, pt, p, scratch), KendallP(sigma, tau, p));
  }
}

TEST(PreparedRankingTest, FreezesBucketStructure) {
  const BucketOrder order =
      BucketOrder::FromBuckets(6, {{2, 5}, {0}, {1, 3, 4}}).value();
  const PreparedRanking prepared(order);
  ASSERT_EQ(prepared.n(), 6u);
  ASSERT_EQ(prepared.num_buckets(), 3u);
  EXPECT_EQ(prepared.tied_pairs(), 1 + 0 + 3);
  EXPECT_EQ(prepared.bucket_offset(),
            (std::vector<std::size_t>{0, 2, 3, 6}));
  EXPECT_EQ(prepared.by_bucket(),
            (std::vector<ElementId>{2, 5, 0, 1, 3, 4}));
  for (std::size_t e = 0; e < 6; ++e) {
    const ElementId id = static_cast<ElementId>(e);
    EXPECT_EQ(prepared.bucket_of()[e], order.BucketOf(id));
    EXPECT_EQ(prepared.twice_position()[e], order.TwicePosition(id));
  }
}

TEST(PreparedRankingTest, DefaultAndDegenerateDomains) {
  const PreparedRanking empty;
  EXPECT_EQ(empty.n(), 0u);
  EXPECT_EQ(empty.num_buckets(), 0u);
  EXPECT_EQ(empty.tied_pairs(), 0);

  PairScratch scratch;
  const PreparedRanking frozen_empty((BucketOrder()));
  EXPECT_EQ(frozen_empty.num_buckets(), 0u);
  EXPECT_EQ(ComputePairCounts(frozen_empty, frozen_empty, scratch),
            PairCounts());
  const PreparedRanking one(BucketOrder::SingleBucket(1));
  EXPECT_EQ(TwiceKprof(one, one, scratch), 0);
  EXPECT_EQ(KHausdorff(one, one, scratch), 0);
  EXPECT_EQ(TwiceFprof(one, one), 0);
  EXPECT_EQ(TwiceFHausdorff(one, one, scratch), 0);
}

TEST(PreparedKernelsTest, MatchLegacyOnRandomizedPairs) {
  Rng rng(20260806);
  PairScratch scratch;
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 60));
    const BucketOrder sigma = RandomBucketOrder(n, rng);
    const BucketOrder tau = round % 2 == 0 ? RandomBucketOrder(n, rng)
                                           : RandomFewValued(n, 3.0, rng);
    ExpectPreparedMatchesLegacy(sigma, tau, scratch);
  }
}

// One scratch driven through wildly varying n / bucket counts / histogram
// modes: reuse must never leak state between calls (the Fenwick prefix and
// flat-histogram entries are per-call).
TEST(PreparedKernelsTest, ScratchReuseAcrossVaryingInputs) {
  Rng rng(42);
  const std::vector<BucketOrder> orders = MixedOrders(rng);
  PairScratch scratch;
  for (const BucketOrder& sigma : orders) {
    for (const BucketOrder& tau : orders) {
      if (sigma.n() != tau.n()) continue;
      ExpectPreparedMatchesLegacy(sigma, tau, scratch);
    }
  }
}

// Repeats a call after the scratch served larger inputs in between: stale
// high-water state must not change the answer.
TEST(PreparedKernelsTest, ShrinkingInputsAfterLargeOnes) {
  Rng rng(7);
  PairScratch scratch;
  const BucketOrder small_sigma = RandomBucketOrder(9, rng);
  const BucketOrder small_tau = RandomBucketOrder(9, rng);
  const PreparedRanking ps(small_sigma);
  const PreparedRanking pt(small_tau);
  const PairCounts before = ComputePairCounts(ps, pt, scratch);

  const BucketOrder big_sigma =
      BucketOrder::FromPermutation(Permutation::Random(300, rng));
  const BucketOrder big_tau = RandomBucketOrder(300, rng);
  ExpectPreparedMatchesLegacy(big_sigma, big_tau, scratch);

  EXPECT_EQ(ComputePairCounts(ps, pt, scratch), before);
  EXPECT_EQ(before, ComputePairCounts(small_sigma, small_tau));
}

TEST(PreparedKernelsTest, ReserveIsOptionalAndHarmless) {
  Rng rng(3);
  const BucketOrder sigma = RandomFewValued(50, 5.0, rng);
  const BucketOrder tau = RandomBucketOrder(50, rng);
  PairScratch cold;
  PairScratch reserved;
  reserved.Reserve(50, 50);
  const PreparedRanking ps(sigma);
  const PreparedRanking pt(tau);
  EXPECT_EQ(ComputePairCounts(ps, pt, cold),
            ComputePairCounts(ps, pt, reserved));
}

// The core acceptance criterion of the prepared layer: once the scratch has
// seen the workload's shape, the per-pair kernels never touch the heap.
TEST(PreparedKernelsTest, WarmKernelsPerformZeroHeapAllocations) {
  Rng rng(11);
  std::vector<BucketOrder> orders;
  for (int i = 0; i < 6; ++i) {
    orders.push_back(RandomFewValued(200, 4.0, rng));         // flat joint
    orders.push_back(
        BucketOrder::FromPermutation(Permutation::Random(200, rng)));
    // ^ all-singleton: t_sigma * t_tau = n^2 -> sort-fallback joint
  }
  std::vector<PreparedRanking> prepared;
  prepared.reserve(orders.size());
  for (const BucketOrder& order : orders) prepared.emplace_back(order);

  PairScratch scratch;
  // Warm-up pass: grows the scratch to its high-water mark and runs the
  // obs counters' one-time handle registration.
  std::int64_t checksum = 0;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    for (std::size_t j = i + 1; j < prepared.size(); ++j) {
      checksum += TwiceKprof(prepared[i], prepared[j], scratch);
      checksum += KHausdorff(prepared[i], prepared[j], scratch);
      checksum += TwiceFprof(prepared[i], prepared[j]);
      checksum += TwiceFHausdorff(prepared[i], prepared[j], scratch);
    }
  }

  std::int64_t counted = 0;
  StartCountingAllocations();
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    for (std::size_t j = i + 1; j < prepared.size(); ++j) {
      counted += TwiceKprof(prepared[i], prepared[j], scratch);
      counted += KHausdorff(prepared[i], prepared[j], scratch);
      counted += TwiceFprof(prepared[i], prepared[j]);
      counted += TwiceFHausdorff(prepared[i], prepared[j], scratch);
    }
  }
  EXPECT_EQ(StopCountingAllocations(), 0)
      << "warm prepared kernels must not allocate";
  EXPECT_EQ(counted, checksum);
}

// Contrast case documenting why the legacy path needed replacing: the same
// warm-loop measurement over the BucketOrder kernels allocates per pair.
TEST(PreparedKernelsTest, LegacyKernelsDoAllocatePerPair) {
  Rng rng(11);
  const BucketOrder sigma = RandomFewValued(200, 4.0, rng);
  const BucketOrder tau = RandomBucketOrder(200, rng);
  (void)TwiceKprof(sigma, tau);  // warm-up for symmetry
  StartCountingAllocations();
  const std::int64_t value = TwiceKprof(sigma, tau);
  EXPECT_GT(StopCountingAllocations(), 0);
  EXPECT_EQ(value, TwiceKprof(sigma, tau));
}

}  // namespace
}  // namespace rankties
