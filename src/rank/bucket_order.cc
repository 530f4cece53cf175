#include "rank/bucket_order.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/contracts.h"

namespace rankties {

void BucketOrder::RebuildPositions() {
  twice_pos_by_bucket_.resize(buckets_.size());
  std::int64_t before = 0;  // number of elements in earlier buckets
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::int64_t size = static_cast<std::int64_t>(buckets_[b].size());
    // pos(B) = before + (size+1)/2  =>  2*pos = 2*before + size + 1.
    twice_pos_by_bucket_[b] = 2 * before + size + 1;
    before += size;
  }
}

StatusOr<BucketOrder> BucketOrder::FromBuckets(
    std::size_t n, std::vector<std::vector<ElementId>> buckets) {
  BucketOrder order;
  order.bucket_of_.assign(n, -1);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].empty()) {
      return Status::InvalidArgument("empty bucket");
    }
    for (ElementId e : buckets[b]) {
      if (e < 0 || static_cast<std::size_t>(e) >= n) {
        return Status::InvalidArgument("element out of range [0, n)");
      }
      if (order.bucket_of_[static_cast<std::size_t>(e)] != -1) {
        return Status::InvalidArgument("element appears in two buckets");
      }
      order.bucket_of_[static_cast<std::size_t>(e)] =
          static_cast<BucketIndex>(b);
    }
    std::sort(buckets[b].begin(), buckets[b].end());
  }
  for (std::size_t e = 0; e < n; ++e) {
    if (order.bucket_of_[e] == -1) {
      return Status::InvalidArgument("element missing from all buckets");
    }
  }
  order.buckets_ = std::move(buckets);
  order.RebuildPositions();
  RANKTIES_DCHECK_OK(order.Validate());
  return order;
}

StatusOr<BucketOrder> BucketOrder::FromBucketIndex(
    const std::vector<BucketIndex>& bucket_of) {
  const std::size_t n = bucket_of.size();
  BucketIndex max_bucket = -1;
  for (BucketIndex b : bucket_of) {
    if (b < 0) return Status::InvalidArgument("negative bucket index");
    max_bucket = std::max(max_bucket, b);
  }
  // Count bucket sizes, reject gaps, then fill every bucket in one
  // ascending-element pass: the elements land already sorted and each
  // appears exactly once, so the result is valid by construction and
  // needs neither FromBuckets' per-bucket sort nor its re-validation.
  std::vector<std::size_t> sizes(static_cast<std::size_t>(max_bucket + 1));
  for (BucketIndex b : bucket_of) ++sizes[static_cast<std::size_t>(b)];
  BucketOrder order;
  order.buckets_.resize(sizes.size());
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    if (sizes[b] == 0) {
      return Status::InvalidArgument("bucket indices not contiguous");
    }
    order.buckets_[b].reserve(sizes[b]);
  }
  for (std::size_t e = 0; e < n; ++e) {
    order.buckets_[static_cast<std::size_t>(bucket_of[e])].push_back(
        static_cast<ElementId>(e));
  }
  order.bucket_of_ = bucket_of;
  order.RebuildPositions();
  RANKTIES_DCHECK_OK(order.Validate());
  return order;
}

BucketOrder BucketOrder::FromPermutation(const Permutation& perm) {
  BucketOrder order;
  const std::size_t n = perm.n();
  order.buckets_.resize(n);
  order.bucket_of_.resize(n);
  for (std::size_t e = 0; e < n; ++e) {
    const ElementId rank = perm.Rank(static_cast<ElementId>(e));
    order.buckets_[static_cast<std::size_t>(rank)] = {
        static_cast<ElementId>(e)};
    order.bucket_of_[e] = rank;
  }
  order.RebuildPositions();
  RANKTIES_DCHECK_OK(order.Validate());
  return order;
}

BucketOrder BucketOrder::SingleBucket(std::size_t n) {
  BucketOrder order;
  if (n == 0) return order;
  order.buckets_.resize(1);
  order.buckets_[0].resize(n);
  std::iota(order.buckets_[0].begin(), order.buckets_[0].end(), 0);
  order.bucket_of_.assign(n, 0);
  order.RebuildPositions();
  RANKTIES_DCHECK_OK(order.Validate());
  return order;
}

BucketOrder BucketOrder::TopKOf(const Permutation& perm, std::size_t k) {
  const std::size_t n = perm.n();
  RANKTIES_DCHECK(k <= n);
  if (k == n) return FromPermutation(perm);
  // Every element starts in the bottom bucket k; the top k are moved out,
  // and one ascending pass over the ids fills the bottom bucket sorted.
  BucketOrder order;
  order.buckets_.resize(k + 1);
  order.bucket_of_.assign(n, static_cast<BucketIndex>(k));
  for (std::size_t r = 0; r < k; ++r) {
    const ElementId e = perm.At(static_cast<ElementId>(r));
    order.buckets_[r] = {e};
    order.bucket_of_[static_cast<std::size_t>(e)] =
        static_cast<BucketIndex>(r);
  }
  std::vector<ElementId>& bottom = order.buckets_[k];
  bottom.reserve(n - k);
  for (std::size_t e = 0; e < n; ++e) {
    if (order.bucket_of_[e] == static_cast<BucketIndex>(k)) {
      bottom.push_back(static_cast<ElementId>(e));
    }
  }
  order.RebuildPositions();
  RANKTIES_DCHECK_OK(order.Validate());
  return order;
}

BucketOrder BucketOrder::FromScores(const std::vector<double>& scores) {
  const std::size_t n = scores.size();
  std::vector<ElementId> by_score(n);
  std::iota(by_score.begin(), by_score.end(), 0);
  std::sort(by_score.begin(), by_score.end(), [&](ElementId a, ElementId b) {
    return scores[static_cast<std::size_t>(a)] <
           scores[static_cast<std::size_t>(b)];
  });
  BucketOrder order;
  order.bucket_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ElementId e = by_score[i];
    if (i == 0 || scores[static_cast<std::size_t>(e)] !=
                      scores[static_cast<std::size_t>(by_score[i - 1])]) {
      order.buckets_.emplace_back();
    }
    order.buckets_.back().push_back(e);
    order.bucket_of_[static_cast<std::size_t>(e)] =
        static_cast<BucketIndex>(order.buckets_.size() - 1);
  }
  for (auto& b : order.buckets_) std::sort(b.begin(), b.end());
  order.RebuildPositions();
  RANKTIES_DCHECK_OK(order.Validate());
  return order;
}

BucketOrder BucketOrder::FromIntKeys(const std::vector<std::int64_t>& keys) {
  const std::size_t n = keys.size();
  std::vector<ElementId> by_key(n);
  std::iota(by_key.begin(), by_key.end(), 0);
  std::sort(by_key.begin(), by_key.end(), [&](ElementId a, ElementId b) {
    return keys[static_cast<std::size_t>(a)] <
           keys[static_cast<std::size_t>(b)];
  });
  BucketOrder order;
  order.bucket_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ElementId e = by_key[i];
    if (i == 0 || keys[static_cast<std::size_t>(e)] !=
                      keys[static_cast<std::size_t>(by_key[i - 1])]) {
      order.buckets_.emplace_back();
    }
    order.buckets_.back().push_back(e);
    order.bucket_of_[static_cast<std::size_t>(e)] =
        static_cast<BucketIndex>(order.buckets_.size() - 1);
  }
  for (auto& b : order.buckets_) std::sort(b.begin(), b.end());
  order.RebuildPositions();
  RANKTIES_DCHECK_OK(order.Validate());
  return order;
}

Status BucketOrder::Validate() const {
  const std::size_t n = bucket_of_.size();
  if (twice_pos_by_bucket_.size() != buckets_.size()) {
    return Status::Internal("position table size differs from bucket count");
  }
  std::size_t covered = 0;
  std::int64_t before = 0;  // elements in earlier buckets
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::vector<ElementId>& bucket = buckets_[b];
    if (bucket.empty()) return Status::Internal("empty bucket");
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const ElementId e = bucket[i];
      if (e < 0 || static_cast<std::size_t>(e) >= n) {
        return Status::Internal("bucket element out of range [0, n)");
      }
      if (i > 0 && bucket[i - 1] >= e) {
        return Status::Internal("bucket elements not strictly ascending");
      }
      if (bucket_of_[static_cast<std::size_t>(e)] !=
          static_cast<BucketIndex>(b)) {
        return Status::Internal("bucket_of disagrees with the partition");
      }
    }
    const std::int64_t size = static_cast<std::int64_t>(bucket.size());
    if (twice_pos_by_bucket_[b] != 2 * before + size + 1) {
      return Status::Internal("doubled average position is inconsistent");
    }
    before += size;
    covered += bucket.size();
  }
  // bucket_of_ consistency above makes double-coverage impossible, so a
  // total count equal to n certifies the partition.
  if (covered != n) return Status::Internal("buckets do not cover the domain");
  return Status::Ok();
}

std::vector<std::size_t> BucketOrder::Type() const {
  std::vector<std::size_t> type;
  type.reserve(buckets_.size());
  for (const auto& b : buckets_) type.push_back(b.size());
  return type;
}

bool BucketOrder::IsTopK(std::size_t k) const {
  if (k > n()) return false;
  if (k == n()) return IsFull();
  if (num_buckets() != k + 1) return false;
  for (std::size_t b = 0; b < k; ++b) {
    if (buckets_[b].size() != 1) return false;
  }
  return buckets_[k].size() == n() - k;
}

BucketOrder BucketOrder::Reverse() const {
  BucketOrder order;
  order.buckets_.assign(buckets_.rbegin(), buckets_.rend());
  order.bucket_of_.resize(n());
  const BucketIndex t = static_cast<BucketIndex>(num_buckets());
  for (std::size_t e = 0; e < n(); ++e) {
    order.bucket_of_[e] = t - 1 - bucket_of_[e];
  }
  order.RebuildPositions();
  RANKTIES_DCHECK_OK(order.Validate());
  return order;
}

StatusOr<BucketOrder> BucketOrder::RestrictTo(
    const std::vector<ElementId>& subset) const {
  std::vector<BucketIndex> old_bucket(subset.size());
  std::vector<bool> seen(n(), false);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const ElementId e = subset[i];
    if (e < 0 || static_cast<std::size_t>(e) >= n()) {
      return Status::InvalidArgument("subset element out of range");
    }
    if (seen[static_cast<std::size_t>(e)]) {
      return Status::InvalidArgument("duplicate subset element");
    }
    seen[static_cast<std::size_t>(e)] = true;
    old_bucket[i] = BucketOf(e);
  }
  // Compact the surviving bucket indices, preserving order.
  std::vector<BucketIndex> remap(num_buckets(), -1);
  BucketIndex next = 0;
  for (std::size_t b = 0; b < num_buckets(); ++b) {
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (old_bucket[i] == static_cast<BucketIndex>(b)) {
        remap[b] = next++;
        break;
      }
    }
  }
  std::vector<BucketIndex> bucket_of(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    bucket_of[i] = remap[static_cast<std::size_t>(old_bucket[i])];
  }
  return FromBucketIndex(bucket_of);
}

Permutation BucketOrder::CanonicalRefinement() const {
  std::vector<ElementId> out;
  out.reserve(n());
  for (const auto& b : buckets_) {
    out.insert(out.end(), b.begin(), b.end());
  }
  StatusOr<Permutation> perm = Permutation::FromOrder(out);
  RANKTIES_DCHECK_OK(perm);
  return std::move(perm).value();
}

std::string BucketOrder::ToString() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (b > 0) os << " | ";
    for (std::size_t i = 0; i < buckets_[b].size(); ++i) {
      if (i > 0) os << " ";
      os << buckets_[b][i];
    }
  }
  os << "]";
  return os.str();
}

}  // namespace rankties
