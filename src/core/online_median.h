#ifndef RANKTIES_CORE_ONLINE_MEDIAN_H_
#define RANKTIES_CORE_ONLINE_MEDIAN_H_

#include <cstdint>
#include <vector>

#include "rank/bucket_order.h"
#include "rank/permutation.h"
#include "util/status.h"

namespace rankties {

/// Incremental median-rank aggregation: voters arrive one at a time (a
/// meta-search engine answering as upstream engines respond; a poll
/// updating as ballots arrive) and the aggregate is queryable at any
/// point. Voters can also *change their mind* (ROADMAP item 4): a live
/// corpus replaces or withdraws a ballot and the aggregate follows without
/// a batch recompute. Per element the doubled positions of the current
/// voters are kept in one sorted flat array, so the lower median is entry
/// (m-1)/2. At the m this serves (tens to hundreds of voters) a shift of
/// that array is one short memmove, cheaper than any node-based tree.
/// Costs:
///   AddVoter      O(n * m),
///   UpdateVoter   O(changed elements * m), a memmove per element and no
///                 allocation,
///   RemoveVoter   O(n * m),
///   CurrentTopK   O(n log k),
/// and every query agrees exactly with the batch MedianRankScoresQuad
/// (kLower) over the current voter set (fuzzed by the mutation-trace
/// family, tests/fuzz).
class OnlineMedianAggregator {
 public:
  /// Fixes the domain size up front.
  explicit OnlineMedianAggregator(std::size_t n);

  std::size_t n() const { return positions_.size(); }
  std::size_t num_voters() const { return num_voters_; }

  /// Adds one voter; its index is num_voters() before the call. Fails on
  /// domain-size mismatch.
  Status AddVoter(const BucketOrder& voter);

  /// Replaces voter `index`'s ballot. Only elements whose doubled position
  /// actually changed touch their median structure. Fails on a bad index
  /// or domain-size mismatch.
  Status UpdateVoter(std::size_t index, const BucketOrder& voter);

  /// Withdraws voter `index`'s ballot. The last voter takes over the
  /// vacated index (swap-with-last, like vector erase by swap), so caller
  /// bookkeeping must remap that one index. Fails on a bad index.
  Status RemoveVoter(std::size_t index);

  /// Quadrupled lower-median scores over the voters so far.
  /// Fails before the first voter.
  StatusOr<std::vector<std::int64_t>> ScoresQuad() const;

  /// Current best-first full ranking (median scores, ties by id).
  StatusOr<Permutation> CurrentFull() const;

  /// Current top-k list.
  StatusOr<BucketOrder> CurrentTopK(std::size_t k) const;

 private:
  /// Lower median of element `e`'s current doubled positions.
  std::int64_t Median(std::size_t e) const {
    const std::vector<std::int64_t>& values = positions_[e];
    return values[(values.size() - 1) / 2];
  }

  /// positions_[e] = the current voters' doubled positions of e, sorted.
  std::vector<std::vector<std::int64_t>> positions_;
  /// voter_positions_[v][e] = doubled position of e in voter v's current
  /// ballot — the old values UpdateVoter/RemoveVoter must erase.
  std::vector<std::vector<std::int64_t>> voter_positions_;
  std::size_t num_voters_ = 0;
};

}  // namespace rankties

#endif  // RANKTIES_CORE_ONLINE_MEDIAN_H_
