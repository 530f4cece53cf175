#include "core/online_median.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "alloc_hook.h"
#include "core/median_rank.h"
#include "gen/random_orders.h"
#include "util/rng.h"

namespace rankties {
namespace {

// Checks the aggregator against a batch recompute over `voters` (in the
// aggregator's index order): scores equal MedianRankScoresQuad(kLower), and
// for every k in 0..n the selected CurrentTopK(k) equals the top-k cut of
// CurrentFull(). With `voters` empty it checks the no-voter errors instead.
void ExpectMatchesBatch(const OnlineMedianAggregator& online,
                        const std::vector<BucketOrder>& voters) {
  ASSERT_EQ(online.num_voters(), voters.size());
  if (voters.empty()) {
    EXPECT_EQ(online.ScoresQuad().status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(online.CurrentTopK(0).status().code(),
              StatusCode::kFailedPrecondition);
    return;
  }
  auto scores = online.ScoresQuad();
  auto batch = MedianRankScoresQuad(voters, MedianPolicy::kLower);
  ASSERT_TRUE(scores.ok() && batch.ok());
  ASSERT_EQ(*scores, *batch);
  auto full = online.CurrentFull();
  ASSERT_TRUE(full.ok());
  for (std::size_t k = 0; k <= online.n(); ++k) {
    auto topk = online.CurrentTopK(k);
    ASSERT_TRUE(topk.ok()) << "k=" << k;
    ASSERT_EQ(*topk, BucketOrder::TopKOf(*full, k)) << "k=" << k;
  }
  EXPECT_EQ(online.CurrentTopK(online.n() + 1).status().code(),
            StatusCode::kInvalidArgument);
}

// A full ranking over {0..n-1} with element 0 at 1-based `position` and the
// other elements in id order around it: element 0's doubled position is
// exactly 2 * position.
BucketOrder WithZeroAt(std::size_t n, std::size_t position) {
  std::vector<ElementId> order;
  for (std::size_t e = 1; e < n; ++e) {
    if (order.size() + 1 == position) order.push_back(0);
    order.push_back(static_cast<ElementId>(e));
  }
  if (order.size() < n) order.push_back(0);
  return BucketOrder::FromPermutation(*Permutation::FromOrder(order));
}

TEST(OnlineMedianTest, MatchesBatchAfterEveryVoter) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 12;
    OnlineMedianAggregator online(n);
    std::vector<BucketOrder> so_far;
    for (int v = 0; v < 9; ++v) {
      const BucketOrder voter = RandomBucketOrder(n, rng);
      ASSERT_TRUE(online.AddVoter(voter).ok());
      so_far.push_back(voter);
      auto incremental = online.ScoresQuad();
      auto batch = MedianRankScoresQuad(so_far, MedianPolicy::kLower);
      ASSERT_TRUE(incremental.ok() && batch.ok());
      ASSERT_EQ(*incremental, *batch) << "after voter " << v;
      auto full_online = online.CurrentFull();
      auto full_batch = MedianAggregateFull(so_far, MedianPolicy::kLower);
      ASSERT_TRUE(full_online.ok() && full_batch.ok());
      EXPECT_EQ(*full_online, *full_batch);
    }
  }
}

TEST(OnlineMedianTest, HeavyTieWorkload) {
  // Lots of duplicate positions exercise the equal-key median tracking.
  Rng rng(2);
  const std::size_t n = 20;
  OnlineMedianAggregator online(n);
  std::vector<BucketOrder> so_far;
  for (int v = 0; v < 12; ++v) {
    const BucketOrder voter = RandomFewValued(n, 8.0, rng);
    ASSERT_TRUE(online.AddVoter(voter).ok());
    so_far.push_back(voter);
    auto incremental = online.ScoresQuad();
    auto batch = MedianRankScoresQuad(so_far, MedianPolicy::kLower);
    ASSERT_TRUE(incremental.ok() && batch.ok());
    ASSERT_EQ(*incremental, *batch) << "after voter " << v;
  }
}

TEST(OnlineMedianTest, TopKConsistent) {
  Rng rng(3);
  OnlineMedianAggregator online(10);
  std::vector<BucketOrder> so_far;
  for (int v = 0; v < 5; ++v) {
    const BucketOrder voter = RandomBucketOrder(10, rng);
    ASSERT_TRUE(online.AddVoter(voter).ok());
    so_far.push_back(voter);
  }
  auto online_topk = online.CurrentTopK(3);
  auto batch_topk = MedianAggregateTopK(so_far, 3, MedianPolicy::kLower);
  ASSERT_TRUE(online_topk.ok() && batch_topk.ok());
  EXPECT_EQ(*online_topk, *batch_topk);
}

// Metamorphic: the aggregate is a per-element median, so it cannot depend
// on the order voters arrive in. 200 seeded corpora, each added to the
// aggregator in a random permutation of voter order, must reproduce the
// batch scores and top-k of the unpermuted corpus exactly.
TEST(OnlineMedianTest, VoterOrderPermutationInvariance) {
  Rng rng(0x5EED0207);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(2, 16));
    const std::size_t m = static_cast<std::size_t>(rng.UniformInt(1, 7));
    std::vector<BucketOrder> voters;
    voters.reserve(m);
    for (std::size_t v = 0; v < m; ++v) {
      voters.push_back(trial % 3 == 0 ? RandomFewValued(n, 4.0, rng)
                                      : RandomBucketOrder(n, rng));
    }
    auto batch = MedianRankScoresQuad(voters, MedianPolicy::kLower);
    ASSERT_TRUE(batch.ok());
    const std::size_t k = static_cast<std::size_t>(
        rng.UniformInt(1, static_cast<std::int64_t>(n)));
    auto batch_topk = MedianAggregateTopK(voters, k, MedianPolicy::kLower);
    ASSERT_TRUE(batch_topk.ok());

    std::vector<std::size_t> arrival(m);
    std::iota(arrival.begin(), arrival.end(), 0u);
    rng.Shuffle(arrival);
    OnlineMedianAggregator online(n);
    for (std::size_t index : arrival) {
      ASSERT_TRUE(online.AddVoter(voters[index]).ok());
    }
    auto scores = online.ScoresQuad();
    ASSERT_TRUE(scores.ok());
    EXPECT_EQ(*scores, *batch) << "trial " << trial << " n=" << n
                               << " m=" << m;
    auto online_topk = online.CurrentTopK(k);
    ASSERT_TRUE(online_topk.ok());
    EXPECT_EQ(*online_topk, *batch_topk)
        << "trial " << trial << " k=" << k;
  }
}

TEST(OnlineMedianTest, UpdateVoterMatchesBatchRecompute) {
  Rng rng(4);
  const std::size_t n = 14;
  OnlineMedianAggregator online(n);
  std::vector<BucketOrder> voters;
  for (int v = 0; v < 6; ++v) {
    voters.push_back(RandomBucketOrder(n, rng));
    ASSERT_TRUE(online.AddVoter(voters.back()).ok());
  }
  for (int round = 0; round < 40; ++round) {
    const std::size_t index = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(voters.size()) - 1));
    voters[index] = RandomBucketOrder(n, rng);
    ASSERT_TRUE(online.UpdateVoter(index, voters[index]).ok());
    auto scores = online.ScoresQuad();
    auto batch = MedianRankScoresQuad(voters, MedianPolicy::kLower);
    ASSERT_TRUE(scores.ok() && batch.ok());
    ASSERT_EQ(*scores, *batch) << "round " << round;
  }
  EXPECT_FALSE(online.UpdateVoter(voters.size(), voters[0]).ok());
  EXPECT_FALSE(online.UpdateVoter(0, BucketOrder::SingleBucket(n + 1)).ok());
}

TEST(OnlineMedianTest, RemoveVoterMatchesBatchRecompute) {
  Rng rng(5);
  const std::size_t n = 11;
  OnlineMedianAggregator online(n);
  std::vector<BucketOrder> voters;
  for (int v = 0; v < 7; ++v) {
    voters.push_back(RandomFewValued(n, 3.0, rng));
    ASSERT_TRUE(online.AddVoter(voters.back()).ok());
  }
  while (voters.size() > 1) {
    const std::size_t index = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(voters.size()) - 1));
    ASSERT_TRUE(online.RemoveVoter(index).ok());
    // Mirror the aggregator's swap-with-last bookkeeping.
    voters[index] = std::move(voters.back());
    voters.pop_back();
    EXPECT_EQ(online.num_voters(), voters.size());
    auto scores = online.ScoresQuad();
    auto batch = MedianRankScoresQuad(voters, MedianPolicy::kLower);
    ASSERT_TRUE(scores.ok() && batch.ok());
    ASSERT_EQ(*scores, *batch) << voters.size() << " voters left";
  }
  ASSERT_TRUE(online.RemoveVoter(0).ok());
  EXPECT_EQ(online.num_voters(), 0u);
  EXPECT_FALSE(online.ScoresQuad().ok());  // back to the empty state
  EXPECT_FALSE(online.RemoveVoter(0).ok());
  // The aggregator is reusable after draining to empty.
  ASSERT_TRUE(online.AddVoter(BucketOrder::SingleBucket(n)).ok());
  EXPECT_TRUE(online.ScoresQuad().ok());
}

// Few-valued voters make many median scores tie, so the selected top-k
// must break ties by id exactly as CurrentFull's stable sort does. A seeded
// mix of adds, updates and removals keeps the voter count moving through
// odd and even values.
TEST(OnlineMedianTest, TopKWithHeavyTiesMatchesFullCut) {
  Rng rng(0x70BE);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 24));
    const double mean_bucket = trial % 2 == 0 ? 3.0 : 8.0;
    OnlineMedianAggregator online(n);
    std::vector<BucketOrder> voters;
    for (int step = 0; step < 60; ++step) {
      const std::int64_t op = voters.empty() ? 0 : rng.UniformInt(0, 2);
      if (op == 0) {
        voters.push_back(RandomFewValued(n, mean_bucket, rng));
        ASSERT_TRUE(online.AddVoter(voters.back()).ok());
      } else {
        const std::size_t index = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(voters.size()) - 1));
        if (op == 1) {
          voters[index] = RandomFewValued(n, mean_bucket, rng);
          ASSERT_TRUE(online.UpdateVoter(index, voters[index]).ok());
        } else {
          ASSERT_TRUE(online.RemoveVoter(index).ok());
          voters[index] = std::move(voters.back());
          voters.pop_back();
        }
      }
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " step "
                                      << step << " n=" << n);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesBatch(online, voters));
    }
  }
}

// Drives every shape of UpdateVoter's shift on element 0's sorted array,
// for m = 1..6 (so m = 1, m = 2, odd and even): voter v initially holds
// element 0 at position 2v+2, and each voter in turn moves it to a new
// minimum, a new maximum, one step that stays within its own slot, and
// onto each neighbour's value (a duplicate), returning home after each.
// The elements a move leaves in place take the unchanged-value path.
TEST(OnlineMedianTest, UpdateVoterShiftEdgeCases) {
  const std::size_t n = 14;
  for (std::size_t m = 1; m <= 6; ++m) {
    OnlineMedianAggregator online(n);
    std::vector<BucketOrder> voters;
    for (std::size_t v = 0; v < m; ++v) {
      voters.push_back(WithZeroAt(n, 2 * v + 2));
      ASSERT_TRUE(online.AddVoter(voters.back()).ok());
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesBatch(online, voters));
    for (std::size_t v = 0; v < m; ++v) {
      const std::size_t home = 2 * v + 2;
      std::vector<std::size_t> targets = {1, n, home + 1};
      if (v > 0) targets.push_back(home - 2);      // onto the lower neighbour
      if (v + 1 < m) targets.push_back(home + 2);  // onto the upper neighbour
      for (const std::size_t target : targets) {
        for (const std::size_t position : {target, home}) {
          voters[v] = WithZeroAt(n, position);
          ASSERT_TRUE(online.UpdateVoter(v, voters[v]).ok());
          SCOPED_TRACE(::testing::Message() << "m=" << m << " voter " << v
                                          << " -> position " << position);
          ASSERT_NO_FATAL_FAILURE(ExpectMatchesBatch(online, voters));
        }
      }
    }
  }
}

TEST(OnlineMedianTest, RemoveToZeroThenAddFresh) {
  Rng rng(6);
  const std::size_t n = 9;
  OnlineMedianAggregator online(n);
  std::vector<BucketOrder> voters;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    for (int v = 0; v < 4 + round; ++v) {
      voters.push_back(RandomFewValued(n, 2.0, rng));
      ASSERT_TRUE(online.AddVoter(voters.back()).ok());
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesBatch(online, voters));
    }
    while (!voters.empty()) {
      ASSERT_TRUE(online.RemoveVoter(0).ok());
      voters[0] = std::move(voters.back());
      voters.pop_back();
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesBatch(online, voters));
    }
  }
}

// Once a ballot is built, replacing it only shifts values inside arrays
// that already have room for them, so UpdateVoter performs no heap
// allocation at all.
TEST(OnlineMedianTest, UpdateVoterAllocatesNothing) {
  Rng rng(7);
  const std::size_t n = 300;
  OnlineMedianAggregator online(n);
  std::vector<BucketOrder> voters;
  for (int v = 0; v < 33; ++v) {
    voters.push_back(RandomBucketOrder(n, rng));
    ASSERT_TRUE(online.AddVoter(voters.back()).ok());
  }
  // Warm-up: the obs counters register their handles on first use.
  voters[0] = RandomBucketOrder(n, rng);
  ASSERT_TRUE(online.UpdateVoter(0, voters[0]).ok());
  for (int round = 0; round < 20; ++round) {
    const std::size_t index = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(voters.size()) - 1));
    voters[index] = round % 2 == 0 ? RandomBucketOrder(n, rng)
                                   : RandomFewValued(n, 6.0, rng);
    StartCountingAllocations();
    const Status status = online.UpdateVoter(index, voters[index]);
    const std::int64_t allocations = StopCountingAllocations();
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(allocations, 0) << "round " << round;
  }
  auto scores = online.ScoresQuad();
  auto batch = MedianRankScoresQuad(voters, MedianPolicy::kLower);
  ASSERT_TRUE(scores.ok() && batch.ok());
  EXPECT_EQ(*scores, *batch);
}

TEST(OnlineMedianTest, Validation) {
  OnlineMedianAggregator online(5);
  EXPECT_FALSE(online.ScoresQuad().ok());  // no voters yet
  EXPECT_FALSE(online.CurrentFull().ok());
  EXPECT_FALSE(online.AddVoter(BucketOrder::SingleBucket(7)).ok());
  ASSERT_TRUE(online.AddVoter(BucketOrder::SingleBucket(5)).ok());
  EXPECT_EQ(online.num_voters(), 1u);
  EXPECT_FALSE(online.CurrentTopK(9).ok());
  EXPECT_TRUE(online.CurrentTopK(2).ok());
}

}  // namespace
}  // namespace rankties
