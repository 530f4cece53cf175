#ifndef RANKTIES_CORE_BATCH_ENGINE_H_
#define RANKTIES_CORE_BATCH_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/metric_registry.h"
#include "core/pair_counts.h"
#include "core/prepared.h"
#include "rank/bucket_order.h"
#include "util/status.h"

namespace rankties {

/// Batch metric evaluation over many rankings at once, parallelized on the
/// global ThreadPool (util/thread_pool.h).
///
/// Prepared engine: every batch entry point freezes its inputs once into
/// PreparedRankings (core/prepared.h) — O(m*n) total — and then runs the
/// zero-allocation prepared kernels with one reusable PairScratch per pool
/// thread, instead of paying the legacy per-pair hash-map/sort/Fenwick heap
/// traffic O(m^2) times. All four kinds run prepared: FHaus evaluates the
/// Theorem 5 refinement pair through its joint-bucket-run decomposition
/// (core/prepared.h) instead of materializing the two refinements.
///
/// Determinism guarantee: every function here returns results bit-identical
/// to the corresponding serial ComputeMetric loop, for every thread count.
/// The prepared kernels are integer-exact and share their post-processing
/// with the legacy path, parallel tasks only compute independent
/// matrix/vector slots, and every floating-point reduction (totals, argmin)
/// runs serially in index order on the calling thread. Thread count and
/// tile shape therefore never change an answer — only how fast it arrives.

/// The m x m matrix D with D[i][j] = ComputeMetric(kind, lists[i],
/// lists[j]). Symmetric with a zero diagonal; each upper-triangle entry is
/// computed once and mirrored. Every list is prepared once and cut into
/// cache-sized tiles, and one SweepBand over the whole corpus as its band
/// fills the (rows+1 choose 2) triangular blocks: a pool lane keeps a small
/// working set of preparations hot while the block count still
/// load-balances the pool.
std::vector<std::vector<double>> DistanceMatrix(
    MetricKind kind, const std::vector<BucketOrder>& lists);

/// The same matrix via the legacy per-pair ComputeMetric path (no
/// preparation, per-pair allocations). Kept callable as the differential
/// oracle for the prepared engine (tests/fuzz) and as the bench_pairwise
/// baseline. Same determinism guarantee.
std::vector<std::vector<double>> DistanceMatrixUnprepared(
    MetricKind kind, const std::vector<BucketOrder>& lists);

/// The block sweep behind DistanceMatrix and OutOfCoreDistanceMatrix
/// (core/outofcore.h). Both cut the corpus into chunks of consecutive
/// lists and fill the upper triangle block by block, row chunk a against
/// column chunk b >= a, over prepared rankings. They differ only in the
/// band, the row chunks resident at once: the whole corpus in RAM, one
/// chunk when chunks stream from disk.

/// The one kind dispatch over prepared rankings. Every kind, FHaus
/// included, runs on the frozen arrays and never touches the heap on a warm
/// scratch. Callers keep the legacy ComputeMetric argument order, which
/// keeps results bit-identical by construction.
double EvalPrepared(MetricKind kind, const PreparedRanking& sigma,
                    const PreparedRanking& tau, PairScratch& scratch);

/// This thread's PairScratch, reused across blocks, calls and kinds: once
/// the first evaluations grow it to the workload's high-water mark, every
/// later kernel call is allocation-free.
PairScratch& ThreadPairScratch();

/// Freezes every list once (O(m*n) total, parallel over the lists) and
/// records the pass in the `batch.prepare_ns` histogram.
std::vector<PreparedRanking> PrepareAll(const std::vector<BucketOrder>& lists);

/// Prepared corpus lists [first, first + lists.size()).
struct PreparedChunk {
  std::size_t first = 0;
  std::span<const PreparedRanking> lists;
};

/// Prepares column chunk `c` on the calling pool lane and returns the
/// corpus index of its first list with the prepared lists, which the
/// block owns. Called from several lanes at once.
using ChunkSource = std::function<
    StatusOr<std::pair<std::size_t, std::vector<PreparedRanking>>>(
        std::size_t c)>;

/// Fills every block (a, b) with a in the band [a0, a0 + band.size()) and
/// a <= b < chunks, one ParallelFor over the blocks; band[k] is chunk
/// a0 + k. Column chunks past the band come from `source`, which may be
/// empty when the band reaches `chunks`. Each slot (i, j), i < j, runs
/// EvalPrepared once in (i, j) order and is mirrored, so the matrix is
/// bit-identical at every lane count. A block whose source fails stays
/// unfilled, and the first failure in block order is returned.
Status SweepBand(MetricKind kind, std::size_t a0,
                 const std::vector<PreparedChunk>& band, std::size_t chunks,
                 const ChunkSource& source,
                 std::vector<std::vector<double>>& matrix);

/// distances[j] = ComputeMetric(kind, candidate, lists[j]) — the inner loop
/// of Kemeny-score evaluation and median-rank validation, parallel over the
/// lists.
std::vector<double> DistancesToAll(MetricKind kind,
                                   const BucketOrder& candidate,
                                   const std::vector<BucketOrder>& lists);

/// Sum of DistancesToAll(kind, candidate, lists) accumulated serially in
/// index order — bit-identical to the serial TotalDistance loop.
double TotalDistanceParallel(MetricKind kind, const BucketOrder& candidate,
                             const std::vector<BucketOrder>& lists);

struct BestCandidateResult {
  std::size_t index = 0;        ///< argmin candidate (lowest index on ties)
  double total_cost = 0.0;      ///< its summed distance to all lists
  std::vector<double> totals;  ///< totals[c] = sum_j d(candidates[c], ...)
};

/// Evaluates every candidate's total distance to `lists` (parallel over the
/// candidate x list grid) and picks the minimizer, first index on ties.
/// Fails when either side is empty.
StatusOr<BestCandidateResult> BestOfCandidates(
    MetricKind kind, const std::vector<BucketOrder>& candidates,
    const std::vector<BucketOrder>& lists);

/// A live all-pairs distance matrix under continuous mutation (ROADMAP
/// item 4). Where DistanceMatrix answers one-shot batch queries, this
/// engine keeps the m x m matrix current while individual rankings mutate:
/// a single-item edit to list i re-evaluates only row/column i — and for
/// the pair-count metrics (Kprof, KHaus) not even that: the engine stores
/// the PairCounts of every pair and applies O(affected-range) count deltas
/// (only the joint-histogram cells involving the moved element change), so
/// a move costs O(sum of affected bucket sizes * m) instead of the full
/// O(m^2 * n log n) rebuild. Fprof/FHaus re-run their prepared kernels
/// over the mutated row (O(m * n)).
///
/// Determinism: every maintained value is bit-identical to a full
/// recompute of the mutated corpus — the count deltas are exact integer
/// updates funneled through the same FromCounts post-processing, and the
/// row refreshes run the same prepared kernels as DistanceMatrix. The
/// mutation-trace fuzz family asserts this after every edit step.
///
/// Not thread-safe: one engine per writer (updates are serial by design so
/// results cannot depend on interleaving).
class IncrementalDistanceMatrix {
 public:
  /// Builds the initial matrix (prepared kernels, serial). Fails when
  /// `lists` is empty or the universe sizes disagree.
  static StatusOr<IncrementalDistanceMatrix> Create(
      MetricKind kind, const std::vector<BucketOrder>& lists);

  IncrementalDistanceMatrix(IncrementalDistanceMatrix&&) noexcept = default;
  IncrementalDistanceMatrix& operator=(IncrementalDistanceMatrix&&) noexcept =
      default;

  [[nodiscard]] std::size_t num_lists() const { return prepared_.size(); }
  [[nodiscard]] std::size_t n() const {
    return prepared_.empty() ? 0 : prepared_.front().n();
  }
  [[nodiscard]] MetricKind kind() const { return kind_; }

  /// The current matrix; symmetric with a zero diagonal, always consistent
  /// with the current state of the lists.
  [[nodiscard]] const std::vector<std::vector<double>>& Matrix() const {
    return matrix_;
  }

  /// The live prepared form of list `i` (delta-maintained).
  [[nodiscard]] const PreparedRanking& List(std::size_t i) const {
    return prepared_[i];
  }

  /// Moves element `e` of list `list` into that list's existing bucket
  /// `target_bucket` and patches row/column `list`. Pair-count metrics pay
  /// O(affected * m); others O(m) kernel evaluations.
  [[nodiscard]] Status MoveToBucket(std::size_t list, ElementId e,
                                    std::size_t target_bucket);

  /// Moves element `e` of list `list` into a new singleton bucket before
  /// bucket `before_bucket` (see PreparedRanking::MoveToNewBucket).
  [[nodiscard]] Status MoveToNewBucket(std::size_t list, ElementId e,
                                       std::size_t before_bucket);

  /// Replaces list `list` wholesale (same universe size) and re-evaluates
  /// its row — the escape hatch for edits bigger than a single move.
  /// Domain-size changes (insert/erase) touch every list of the corpus and
  /// therefore every pair; rebuild via Create for those.
  [[nodiscard]] Status ReplaceList(std::size_t list,
                                   const BucketOrder& order);

  /// Pairs whose value was re-derived since construction — by count delta
  /// or kernel re-evaluation. The closed-loop bench reports this next to
  /// update throughput; full recompute would pay m*(m-1)/2 per edit.
  [[nodiscard]] std::int64_t pairs_reevaluated() const {
    return pairs_reevaluated_;
  }

 private:
  IncrementalDistanceMatrix(MetricKind kind,
                            std::vector<PreparedRanking> prepared);

  /// True when `kind_` derives from PairCounts and count-delta maintenance
  /// applies (Kprof, KHaus).
  [[nodiscard]] bool UsesPairCounts() const;

  /// Metric value of pair (i, j) from the stored counts (sigma = i side).
  [[nodiscard]] double ValueFromCounts(const PairCounts& counts) const;

  /// Re-evaluates row `list` with the prepared kernels (and refreshes the
  /// stored counts for the pair-count kinds).
  void RefreshRow(std::size_t list);

  /// Applies the relation changes of pairs (e, x) to row `list`'s stored
  /// counts and values. `affected` holds (e, x, old_rel, new_rel) with rel
  /// in {-1: e ahead of x, 0: tied, +1: e behind x}.
  struct RelChange {
    ElementId e;
    ElementId x;
    int old_rel;
    int new_rel;
  };
  void ApplyCountDeltas(std::size_t list,
                        const std::vector<RelChange>& affected);

  /// Records old_rel for every pair (e, x) with x in buckets [lo, hi] of
  /// `ranking` into affected_scratch_ (called before the edit)...
  void CaptureAffected(const PreparedRanking& ranking, ElementId e,
                       std::size_t lo, std::size_t hi);
  /// ...and fills in new_rel from the post-edit bucket assignment.
  void FinishAffected(const PreparedRanking& ranking, ElementId e);

  MetricKind kind_ = MetricKind::kKprof;
  std::vector<PreparedRanking> prepared_;
  std::vector<std::vector<double>> matrix_;
  /// counts_[i][j] classifies pairs with sigma = list i, tau = list j
  /// (mirror entries swap the one-sided tie counts). Only populated for
  /// the pair-count kinds.
  std::vector<std::vector<PairCounts>> counts_;
  PairScratch scratch_;
  std::vector<RelChange> affected_scratch_;
  std::int64_t pairs_reevaluated_ = 0;
};

}  // namespace rankties

#endif  // RANKTIES_CORE_BATCH_ENGINE_H_
