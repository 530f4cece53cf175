#include "rank/bucket_order.h"

#include <gtest/gtest.h>

#include "gen/random_orders.h"
#include "rank/io.h"
#include "util/rng.h"

namespace rankties {
namespace {

TEST(BucketOrderTest, FromBucketsBasic) {
  auto order = BucketOrder::FromBuckets(5, {{1, 0}, {2}, {3, 4}});
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->n(), 5u);
  EXPECT_EQ(order->num_buckets(), 3u);
  EXPECT_EQ(order->BucketOf(0), 0);
  EXPECT_EQ(order->BucketOf(1), 0);
  EXPECT_EQ(order->BucketOf(2), 1);
  EXPECT_EQ(order->BucketOf(3), 2);
  EXPECT_EQ(order->BucketOf(4), 2);
  // Buckets store elements ascending regardless of input order.
  EXPECT_EQ(order->bucket(0), (std::vector<ElementId>{0, 1}));
}

TEST(BucketOrderTest, PositionsMatchPaperDefinition) {
  // pos(B_i) = sum_{j<i} |B_j| + (|B_i|+1)/2 (paper §2).
  auto order = BucketOrder::FromBuckets(6, {{0, 1}, {2}, {3, 4, 5}});
  ASSERT_TRUE(order.ok());
  // Bucket 0: pos = (2+1)/2 = 1.5.
  EXPECT_EQ(order->TwicePosition(0), 3);
  EXPECT_DOUBLE_EQ(order->Position(1), 1.5);
  // Bucket 1: pos = 2 + 1 = 3.
  EXPECT_EQ(order->TwicePosition(2), 6);
  // Bucket 2: pos = 3 + 2 = 5.
  EXPECT_EQ(order->TwicePosition(5), 10);
}

TEST(BucketOrderTest, FullRankingPositionsAreOneBased) {
  Permutation identity(4);
  const BucketOrder order = BucketOrder::FromPermutation(identity);
  EXPECT_TRUE(order.IsFull());
  for (ElementId e = 0; e < 4; ++e) {
    EXPECT_EQ(order.TwicePosition(e), 2 * (e + 1));
  }
}

TEST(BucketOrderTest, FromBucketsRejectsBadInput) {
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0, 1}}).ok());          // missing
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0, 1, 1}, {2}}).ok());  // dup
  EXPECT_FALSE(BucketOrder::FromBuckets(3, {{0, 1, 2}, {}}).ok());   // empty
  EXPECT_FALSE(BucketOrder::FromBuckets(2, {{0, 5}}).ok());          // range
}

TEST(BucketOrderTest, FromBucketIndexRoundTrip) {
  auto order = BucketOrder::FromBucketIndex({2, 0, 1, 0});
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->ToString(), "[1 3 | 2 | 0]");
  EXPECT_FALSE(BucketOrder::FromBucketIndex({0, 2}).ok());  // gap
}

// FromBucketIndex builds its buckets directly instead of going through
// FromBuckets; on every valid input the two factories must agree.
TEST(BucketOrderTest, FromBucketIndexMatchesFromBuckets) {
  Rng rng(91);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int64_t n = rng.UniformInt(1, 80);
    const std::int64_t t = rng.UniformInt(1, n);
    // A random surjection onto 0..t-1.
    std::vector<BucketIndex> bucket_of;
    for (std::int64_t e = 0; e < n; ++e) {
      const std::int64_t b = e < t ? e : rng.UniformInt(0, t - 1);
      bucket_of.push_back(static_cast<BucketIndex>(b));
    }
    rng.Shuffle(bucket_of);
    std::vector<std::vector<ElementId>> buckets(static_cast<std::size_t>(t));
    for (std::size_t e = 0; e < bucket_of.size(); ++e) {
      buckets[static_cast<std::size_t>(bucket_of[e])].push_back(
          static_cast<ElementId>(e));
    }
    for (std::vector<ElementId>& bucket : buckets) rng.Shuffle(bucket);

    StatusOr<BucketOrder> via_index = BucketOrder::FromBucketIndex(bucket_of);
    StatusOr<BucketOrder> via_buckets =
        BucketOrder::FromBuckets(bucket_of.size(), std::move(buckets));
    ASSERT_TRUE(via_index.ok()) << via_index.status();
    ASSERT_TRUE(via_buckets.ok()) << via_buckets.status();
    EXPECT_EQ(*via_index, *via_buckets) << "trial " << trial;
    EXPECT_TRUE(via_index->Validate().ok());
    for (std::size_t b = 0; b < via_index->num_buckets(); ++b) {
      EXPECT_EQ(via_index->TwicePositionOfBucket(b),
                via_buckets->TwicePositionOfBucket(b));
    }
  }
}

TEST(BucketOrderTest, FromBucketIndexErrorsAndEmptyInput) {
  const Status negative = BucketOrder::FromBucketIndex({0, -1, 1}).status();
  EXPECT_EQ(negative.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(negative.message(), "negative bucket index");
  // A negative index is reported even when the input also has a gap.
  EXPECT_EQ(BucketOrder::FromBucketIndex({3, -2}).status().message(),
            "negative bucket index");
  const Status gap = BucketOrder::FromBucketIndex({0, 2, 2}).status();
  EXPECT_EQ(gap.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gap.message(), "bucket indices not contiguous");

  StatusOr<BucketOrder> empty = BucketOrder::FromBucketIndex({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->n(), 0u);
  EXPECT_EQ(empty->num_buckets(), 0u);
  EXPECT_EQ(*empty, BucketOrder());
}

TEST(BucketOrderTest, SingleBucketTiesEverything) {
  const BucketOrder order = BucketOrder::SingleBucket(4);
  EXPECT_EQ(order.num_buckets(), 1u);
  for (ElementId e = 0; e < 4; ++e) {
    // pos = (4+1)/2 = 2.5.
    EXPECT_EQ(order.TwicePosition(e), 5);
  }
  EXPECT_TRUE(order.Tied(0, 3));
}

TEST(BucketOrderTest, TopKShape) {
  Permutation identity(6);
  const BucketOrder order = BucketOrder::TopKOf(identity, 2);
  EXPECT_TRUE(order.IsTopK(2));
  EXPECT_FALSE(order.IsTopK(3));
  EXPECT_EQ(order.Type(), (std::vector<std::size_t>{1, 1, 4}));
  // Bottom bucket position: pos = 2 + (4+1)/2 = 4.5.
  EXPECT_EQ(order.TwicePosition(5), 9);
  // k = n degenerates to the full ranking.
  EXPECT_TRUE(BucketOrder::TopKOf(identity, 6).IsFull());
  EXPECT_TRUE(BucketOrder::TopKOf(identity, 6).IsTopK(6));
}

// TopKOf fills its bottom bucket by one ascending pass over the ids; it
// must equal FromBuckets over the same top k ids plus the sorted rest.
TEST(BucketOrderTest, TopKOfMatchesFromBuckets) {
  Rng rng(0x70C4);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 30));
    const Permutation perm = Permutation::Random(n, rng);
    for (std::size_t k = 0; k <= n; ++k) {
      std::vector<std::vector<ElementId>> buckets;
      for (std::size_t r = 0; r < k; ++r) {
        buckets.push_back({perm.At(static_cast<ElementId>(r))});
      }
      if (k < n) {
        std::vector<ElementId> rest;
        for (std::size_t r = k; r < n; ++r) {
          rest.push_back(perm.At(static_cast<ElementId>(r)));
        }
        buckets.push_back(std::move(rest));  // FromBuckets sorts it
      }
      auto expected = BucketOrder::FromBuckets(n, std::move(buckets));
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(BucketOrder::TopKOf(perm, k), *expected)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(BucketOrderTest, FromScoresGroupsEqualValues) {
  const BucketOrder order = BucketOrder::FromScores({3.5, 1.0, 3.5, 0.5});
  EXPECT_EQ(order.ToString(), "[3 | 1 | 0 2]");
}

TEST(BucketOrderTest, ReverseMatchesPaperFormula) {
  // sigma^R(d) = |D| + 1 - sigma(d) (paper §2).
  auto order = BucketOrder::FromBuckets(5, {{0}, {1, 2}, {3, 4}});
  ASSERT_TRUE(order.ok());
  const BucketOrder rev = order->Reverse();
  const std::int64_t twice_n_plus_1 = 2 * (5 + 1);
  for (ElementId e = 0; e < 5; ++e) {
    EXPECT_EQ(rev.TwicePosition(e), twice_n_plus_1 - order->TwicePosition(e))
        << "element " << e;
  }
  // Reversing twice is the identity.
  EXPECT_EQ(rev.Reverse(), *order);
}

TEST(BucketOrderTest, TypeAndAheadAndTied) {
  auto order = BucketOrder::FromBuckets(4, {{3}, {0, 2}, {1}});
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->Type(), (std::vector<std::size_t>{1, 2, 1}));
  EXPECT_TRUE(order->Ahead(3, 0));
  EXPECT_TRUE(order->Tied(0, 2));
  EXPECT_FALSE(order->Ahead(0, 2));
  EXPECT_FALSE(order->Ahead(1, 3));
}

TEST(BucketOrderTest, CanonicalRefinementIsRefinement) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder order = RandomBucketOrder(10, rng);
    const Permutation refined = order.CanonicalRefinement();
    // Every strict order in `order` is preserved.
    for (ElementId a = 0; a < 10; ++a) {
      for (ElementId b = 0; b < 10; ++b) {
        if (order.Ahead(a, b)) {
          EXPECT_LT(refined.Rank(a), refined.Rank(b));
        }
      }
    }
  }
}

TEST(BucketOrderTest, ParseRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const BucketOrder order = RandomBucketOrder(12, rng);
    auto parsed = ParseBucketOrder(order.ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, order);
  }
}

TEST(BucketOrderTest, ParseRejectsMalformed) {
  EXPECT_FALSE(ParseBucketOrder("0 1 | 2").ok());    // no brackets
  EXPECT_FALSE(ParseBucketOrder("[0 1 | ]").ok());   // trailing empty bucket
  EXPECT_FALSE(ParseBucketOrder("[0 | | 1]").ok());  // empty middle bucket
  EXPECT_FALSE(ParseBucketOrder("[0 2]").ok());      // non-contiguous ids
  EXPECT_FALSE(ParseBucketOrder("[0 1] x").ok());    // trailing junk
  EXPECT_FALSE(ParseBucketOrder("[0 1").ok());       // unterminated
}

TEST(BucketOrderTest, FormatAndParseMany) {
  Rng rng(99);
  std::vector<BucketOrder> orders;
  for (int i = 0; i < 5; ++i) orders.push_back(RandomBucketOrder(8, rng));
  auto parsed = ParseBucketOrders(FormatBucketOrders(orders));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), orders.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    EXPECT_EQ((*parsed)[i], orders[i]);
  }
}

}  // namespace
}  // namespace rankties
