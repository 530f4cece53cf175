#include "core/online_median.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/obs.h"
#include "util/contracts.h"

namespace rankties {

OnlineMedianAggregator::OnlineMedianAggregator(std::size_t n)
    : positions_(n) {}

Status OnlineMedianAggregator::AddVoter(const BucketOrder& voter) {
  if (voter.n() != n()) {
    return Status::InvalidArgument("voter domain size mismatch");
  }
  const std::size_t m = num_voters_ + 1;  // count including this voter
  std::vector<std::int64_t> row(n());
  for (std::size_t e = 0; e < n(); ++e) {
    const std::int64_t value =
        voter.TwicePosition(static_cast<ElementId>(e));
    row[e] = value;
    std::vector<std::int64_t>& values = positions_[e];
    values.insert(std::upper_bound(values.begin(), values.end(), value),
                  value);
  }
  voter_positions_.push_back(std::move(row));
  num_voters_ = m;
  RANKTIES_OBS_COUNT("online_median.add_voters", 1);
  RANKTIES_OBS_COUNT("online_median.elements_touched",
                     static_cast<std::int64_t>(n()));
  RANKTIES_FLIGHT(obs::FlightEventId::kOnlineMedianAdd,
                  static_cast<std::int64_t>(m - 1),
                  static_cast<std::int64_t>(n()));
  return Status::Ok();
}

Status OnlineMedianAggregator::UpdateVoter(std::size_t index,
                                           const BucketOrder& voter) {
  if (index >= num_voters_) {
    return Status::InvalidArgument("voter index out of range");
  }
  if (voter.n() != n()) {
    return Status::InvalidArgument("voter domain size mismatch");
  }
  std::vector<std::int64_t>& row = voter_positions_[index];
  std::int64_t touched = 0;
  for (std::size_t e = 0; e < n(); ++e) {
    const std::int64_t value =
        voter.TwicePosition(static_cast<ElementId>(e));
    if (value == row[e]) continue;  // untouched elements cost nothing
    // Move the old value's slot to the new value's: shift only the values
    // strictly between the two by one, so the array never reallocates.
    std::vector<std::int64_t>& values = positions_[e];
    const auto slot = std::lower_bound(values.begin(), values.end(), row[e]);
    RANKTIES_DCHECK(slot != values.end() && *slot == row[e]);
    if (value > row[e]) {
      const auto end = std::lower_bound(slot + 1, values.end(), value);
      std::move(slot + 1, end, slot);
      *(end - 1) = value;
    } else {
      const auto begin = std::upper_bound(values.begin(), slot, value);
      std::move_backward(begin, slot, slot + 1);
      *begin = value;
    }
    row[e] = value;
    ++touched;
  }
  RANKTIES_OBS_COUNT("online_median.update_voters", 1);
  RANKTIES_OBS_COUNT("online_median.elements_touched", touched);
  RANKTIES_FLIGHT(obs::FlightEventId::kOnlineMedianUpdate,
                  static_cast<std::int64_t>(index), touched);
  return Status::Ok();
}

Status OnlineMedianAggregator::RemoveVoter(std::size_t index) {
  if (index >= num_voters_) {
    return Status::InvalidArgument("voter index out of range");
  }
  const std::size_t m = num_voters_ - 1;  // count after the withdrawal
  const std::vector<std::int64_t>& row = voter_positions_[index];
  for (std::size_t e = 0; e < n(); ++e) {
    std::vector<std::int64_t>& values = positions_[e];
    const auto slot = std::lower_bound(values.begin(), values.end(), row[e]);
    RANKTIES_DCHECK(slot != values.end() && *slot == row[e]);
    values.erase(slot);
  }
  // Swap-with-last keeps voter storage dense; the caller remaps only the
  // moved index.
  voter_positions_[index] = std::move(voter_positions_.back());
  voter_positions_.pop_back();
  num_voters_ = m;
  RANKTIES_OBS_COUNT("online_median.remove_voters", 1);
  RANKTIES_OBS_COUNT("online_median.elements_touched",
                     static_cast<std::int64_t>(n()));
  RANKTIES_FLIGHT(obs::FlightEventId::kOnlineMedianRemove,
                  static_cast<std::int64_t>(index),
                  static_cast<std::int64_t>(m));
  return Status::Ok();
}

StatusOr<std::vector<std::int64_t>> OnlineMedianAggregator::ScoresQuad()
    const {
  if (num_voters_ == 0) {
    return Status::FailedPrecondition("no voters added yet");
  }
  std::vector<std::int64_t> scores(n());
  for (std::size_t e = 0; e < n(); ++e) {
    scores[e] = 2 * Median(e);
  }
  return scores;
}

StatusOr<Permutation> OnlineMedianAggregator::CurrentFull() const {
  StatusOr<std::vector<std::int64_t>> scores = ScoresQuad();
  if (!scores.ok()) return scores.status();
  std::vector<ElementId> order(n());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](ElementId a, ElementId b) {
    return (*scores)[static_cast<std::size_t>(a)] <
           (*scores)[static_cast<std::size_t>(b)];
  });
  return Permutation::FromOrder(order);
}

StatusOr<BucketOrder> OnlineMedianAggregator::CurrentTopK(
    std::size_t k) const {
  if (num_voters_ == 0) {
    return Status::FailedPrecondition("no voters added yet");
  }
  if (k > n()) return Status::InvalidArgument("k exceeds domain size");
  // Ordering by (median, id) is CurrentFull's stable sort by score over
  // ascending ids, so selecting the k smallest pairs yields its first k.
  std::vector<std::pair<std::int64_t, ElementId>> keyed(n());
  for (std::size_t e = 0; e < n(); ++e) {
    keyed[e] = {Median(e), static_cast<ElementId>(e)};
  }
  std::partial_sort(keyed.begin(),
                    keyed.begin() + static_cast<std::ptrdiff_t>(k),
                    keyed.end());
  // k singleton buckets, then one bucket with the rest in ascending id
  // order; FromBucketIndex fills it in one pass, with no per-bucket sort.
  std::vector<BucketIndex> bucket_of(n(), static_cast<BucketIndex>(k));
  for (std::size_t r = 0; r < k; ++r) {
    bucket_of[static_cast<std::size_t>(keyed[r].second)] =
        static_cast<BucketIndex>(r);
  }
  return BucketOrder::FromBucketIndex(bucket_of);
}

}  // namespace rankties
