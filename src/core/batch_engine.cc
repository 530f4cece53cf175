#include "core/batch_engine.h"

#include <algorithm>
#include <utility>

#include "core/hausdorff.h"
#include "core/prepared.h"
#include "core/profile_metrics.h"
#include "obs/obs.h"
#include "util/checked_math.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace rankties {

namespace {

// Chunk size that keeps scheduling overhead below ~1/32 of each lane's
// share while still load-balancing metric evaluations of uneven cost.
std::size_t AutoGrain(std::size_t items) {
  const std::size_t lanes = ThreadPool::GlobalThreads();
  return std::max<std::size_t>(1, items / (32 * lanes));
}

// Per-shard wall time of the batch loops; together with the `items`
// attribute on the enclosing span this yields items/sec per stage.
obs::Histogram* ShardTimeHistogram() {
  static obs::Histogram* const histogram =
      obs::GetHistogram("batch.shard_ns");
  return histogram;
}

// Wall time of the prepare-once pass (all inputs of one batch call).
obs::Histogram* PrepareTimeHistogram() {
  static obs::Histogram* const histogram =
      obs::GetHistogram("batch.prepare_ns");
  return histogram;
}

// Tile edge for the triangular tiling of DistanceMatrix. A TxT tile reads
// at most 2T preparations, so T = 32 keeps the per-lane working set a few
// hundred KiB even at n ~ 10^4; shrink T while the tile count undercuts
// ~4 tiles per lane so small matrices still spread across the pool. Tile
// shape never affects values (each slot is computed independently), only
// locality and load balance.
std::size_t TileSizeFor(std::size_t m) {
  const std::size_t lanes = ThreadPool::GlobalThreads();
  std::size_t tile = 32;
  while (tile > 4) {
    const std::size_t rows = (m + tile - 1) / tile;
    // Tile count = (rows+1 choose 2), checked like every pair-count shape.
    if (CheckedChoose2(CheckedAdd(CheckedInt64(rows), 1)) >=
        CheckedInt64(4 * lanes)) {
      break;
    }
    tile /= 2;
  }
  return tile;
}

// Fills one block: every global pair (i, j), i < j, with i in `rows` and j
// in `cols`, evaluated once in (i, j) argument order and mirrored. On a
// diagonal block (rows == cols) that is the block's upper triangle.
void FillBlock(MetricKind kind, const PreparedChunk& rows,
               const PreparedChunk& cols,
               std::vector<std::vector<double>>& matrix) {
  // Block-walk contract, checked per block: the row chunk is the column
  // chunk (a diagonal block) or ends before it starts, and the column chunk
  // ends inside the matrix. Blocks of one sweep stay disjoint only if its
  // chunks do too, which the callers' cuts guarantee — two lanes writing
  // one slot would be a data race.
  RANKTIES_DCHECK(rows.first == cols.first
                      ? rows.lists.size() == cols.lists.size()
                      : rows.first + rows.lists.size() <= cols.first);
  RANKTIES_DCHECK(cols.first + cols.lists.size() <= matrix.size());
  PairScratch& scratch = ThreadPairScratch();
  for (std::size_t i = rows.first; i < rows.first + rows.lists.size(); ++i) {
    const PreparedRanking& sigma = rows.lists[i - rows.first];
    for (std::size_t j = std::max(cols.first, i + 1);
         j < cols.first + cols.lists.size(); ++j) {
      const double d =
          EvalPrepared(kind, sigma, cols.lists[j - cols.first], scratch);
      matrix[i][j] = d;
      matrix[j][i] = d;
    }
  }
}

}  // namespace

double EvalPrepared(MetricKind kind, const PreparedRanking& sigma,
                    const PreparedRanking& tau, PairScratch& scratch) {
  switch (kind) {
    case MetricKind::kKprof:
      return Kprof(sigma, tau, scratch);
    case MetricKind::kFprof:
      return Fprof(sigma, tau);
    case MetricKind::kKHaus:
      return static_cast<double>(KHausdorff(sigma, tau, scratch));
    case MetricKind::kFHaus:
      return FHausdorff(sigma, tau, scratch);
  }
  return 0.0;  // unreachable; keeps -Wreturn-type quiet
}

PairScratch& ThreadPairScratch() {
  static thread_local PairScratch scratch;
  return scratch;
}

std::vector<PreparedRanking> PrepareAll(
    const std::vector<BucketOrder>& lists) {
  obs::ScopedHistogramTimer prepare_timer(PrepareTimeHistogram());
  std::vector<PreparedRanking> prepared(lists.size());
  ParallelFor(0, lists.size(), AutoGrain(lists.size()),
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  prepared[i] = PreparedRanking(lists[i]);
                }
              });
  return prepared;
}

Status SweepBand(MetricKind kind, std::size_t a0,
                 const std::vector<PreparedChunk>& band, std::size_t chunks,
                 const ChunkSource& source,
                 std::vector<std::vector<double>>& matrix) {
  // Blocks (a, b) in row-major order: every band chunk a against every
  // chunk b >= a. Block order is the serial sweep's order.
  const std::size_t band_end = a0 + band.size();
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  for (std::size_t a = a0; a < band_end; ++a) {
    for (std::size_t b = a; b < chunks; ++b) blocks.emplace_back(a, b);
  }
  std::vector<Status> failures(blocks.size());
  ParallelFor(0, blocks.size(), 1, [&](std::size_t lo, std::size_t hi) {
    obs::ScopedHistogramTimer shard_timer(ShardTimeHistogram());
    for (std::size_t t = lo; t < hi; ++t) {
      const auto [a, b] = blocks[t];
      if (b < band_end) {
        FillBlock(kind, band[a - a0], band[b - a0], matrix);
        continue;
      }
      auto cols = source(b);
      if (!cols.ok()) {
        failures[t] = cols.status();
        continue;
      }
      FillBlock(kind, band[a - a0], {cols->first, cols->second}, matrix);
    }
  });
  return FirstFailure(failures);
}

std::vector<std::vector<double>> DistanceMatrix(
    MetricKind kind, const std::vector<BucketOrder>& lists) {
  const std::size_t m = lists.size();
  std::vector<std::vector<double>> matrix(m, std::vector<double>(m, 0.0));
  if (m < 2) return matrix;

  const std::int64_t pairs = CheckedChoose2(CheckedInt64(m));
  obs::TraceSpan span("batch.distance_matrix");
  span.SetItems(pairs);
  RANKTIES_OBS_COUNT("batch.metric_evals", pairs);

  const std::vector<PreparedRanking> prepared = PrepareAll(lists);

  // The whole corpus is resident, so the band is every tile: one sweep
  // over the (rows+1 choose 2) triangular tiles, never calling a source.
  const std::size_t tile = TileSizeFor(m);
  const std::span<const PreparedRanking> all(prepared);
  std::vector<PreparedChunk> band;
  for (std::size_t first = 0; first < m; first += tile) {
    band.push_back({first, all.subspan(first, std::min(tile, m - first))});
  }
  const std::size_t rows = band.size();
  const std::int64_t tiles = CheckedChoose2(CheckedAdd(CheckedInt64(rows), 1));
  RANKTIES_OBS_COUNT("batch.tiles", tiles);
  RANKTIES_FLIGHT(obs::FlightEventId::kBatchMatrix,
                  static_cast<std::int64_t>(m), pairs, tiles);
  const Status swept = SweepBand(kind, 0, band, rows, nullptr, matrix);
  RANKTIES_DCHECK_OK(swept);  // no source, so nothing can fail
  return matrix;
}

std::vector<std::vector<double>> DistanceMatrixUnprepared(
    MetricKind kind, const std::vector<BucketOrder>& lists) {
  const std::size_t m = lists.size();
  std::vector<std::vector<double>> matrix(m, std::vector<double>(m, 0.0));
  if (m < 2) return matrix;

  // Upper-triangle pairs (i, j), i < j, flattened row-major: row i starts at
  // offset[i] and holds m-1-i pairs.
  std::vector<std::size_t> offset(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    offset[i + 1] = offset[i] + (m - 1 - i);
  }
  const std::size_t pairs = offset[m];
  obs::TraceSpan span("batch.distance_matrix_unprepared");
  span.SetItems(static_cast<std::int64_t>(pairs));
  RANKTIES_OBS_COUNT("batch.metric_evals",
                     static_cast<std::int64_t>(pairs));
  ParallelFor(0, pairs, AutoGrain(pairs), [&](std::size_t lo, std::size_t hi) {
    obs::ScopedHistogramTimer shard_timer(ShardTimeHistogram());
    // Locate the row of the first pair in the chunk, then walk forward.
    std::size_t i = static_cast<std::size_t>(
                        std::upper_bound(offset.begin(), offset.end(), lo) -
                        offset.begin()) -
                    1;
    for (std::size_t t = lo; t < hi; ++t) {
      while (t >= offset[i + 1]) ++i;
      const std::size_t j = i + 1 + (t - offset[i]);
      RANKTIES_DCHECK(i < j && j < m);
      const double d = ComputeMetric(kind, lists[i], lists[j]);
      matrix[i][j] = d;
      matrix[j][i] = d;
    }
  });
  return matrix;
}

std::vector<double> DistancesToAll(MetricKind kind,
                                   const BucketOrder& candidate,
                                   const std::vector<BucketOrder>& lists) {
  std::vector<double> distances(lists.size(), 0.0);
  if (lists.empty()) return distances;
  obs::TraceSpan span("batch.distances_to_all");
  span.SetItems(static_cast<std::int64_t>(lists.size()));
  RANKTIES_OBS_COUNT("batch.metric_evals",
                     static_cast<std::int64_t>(lists.size()));
  RANKTIES_FLIGHT(obs::FlightEventId::kBatchDistancesToAll,
                  static_cast<std::int64_t>(lists.size()));
  const PreparedRanking prepared_candidate(candidate);
  const std::vector<PreparedRanking> prepared = PrepareAll(lists);
  ParallelFor(0, lists.size(), AutoGrain(lists.size()),
              [&](std::size_t lo, std::size_t hi) {
                obs::ScopedHistogramTimer shard_timer(ShardTimeHistogram());
                PairScratch& scratch = ThreadPairScratch();
                for (std::size_t j = lo; j < hi; ++j) {
                  distances[j] = EvalPrepared(kind, prepared_candidate,
                                              prepared[j], scratch);
                }
              });
  return distances;
}

double TotalDistanceParallel(MetricKind kind, const BucketOrder& candidate,
                             const std::vector<BucketOrder>& lists) {
  const std::vector<double> distances =
      DistancesToAll(kind, candidate, lists);
  double total = 0.0;
  for (const double d : distances) total += d;  // serial, index order
  return total;
}

StatusOr<BestCandidateResult> BestOfCandidates(
    MetricKind kind, const std::vector<BucketOrder>& candidates,
    const std::vector<BucketOrder>& lists) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate rankings");
  }
  if (lists.empty()) return Status::InvalidArgument("no input rankings");

  const std::size_t c = candidates.size();
  const std::size_t l = lists.size();
  // Flat candidate x list grid so parallelism scales with c*l even when one
  // side is small (one candidate, many lists — or the reverse).
  std::vector<double> grid(c * l, 0.0);
  obs::TraceSpan span("batch.best_of_candidates");
  span.SetItems(static_cast<std::int64_t>(c * l));
  RANKTIES_OBS_COUNT("batch.metric_evals", static_cast<std::int64_t>(c * l));
  RANKTIES_FLIGHT(obs::FlightEventId::kBatchBestOf,
                  static_cast<std::int64_t>(c),
                  static_cast<std::int64_t>(l));
  const std::vector<PreparedRanking> prepared_candidates =
      PrepareAll(candidates);
  const std::vector<PreparedRanking> prepared_lists = PrepareAll(lists);
  ParallelFor(0, c * l, AutoGrain(c * l),
              [&](std::size_t lo, std::size_t hi) {
                obs::ScopedHistogramTimer shard_timer(ShardTimeHistogram());
                PairScratch& scratch = ThreadPairScratch();
                for (std::size_t t = lo; t < hi; ++t) {
                  const std::size_t ci = t / l;
                  const std::size_t j = t % l;
                  grid[t] = EvalPrepared(kind, prepared_candidates[ci],
                                         prepared_lists[j], scratch);
                }
              });

  BestCandidateResult best;
  best.totals.resize(c, 0.0);
  for (std::size_t ci = 0; ci < c; ++ci) {
    double total = 0.0;
    for (std::size_t j = 0; j < l; ++j) total += grid[ci * l + j];
    best.totals[ci] = total;
  }
  best.index = 0;
  best.total_cost = best.totals[0];
  for (std::size_t ci = 1; ci < c; ++ci) {
    if (best.totals[ci] < best.total_cost) {
      best.index = ci;
      best.total_cost = best.totals[ci];
    }
  }
  return best;
}

namespace {

// Relation of the moved element e to a fixed element x in one ranking:
// -1 when e's bucket precedes x's, 0 when tied, +1 when e's bucket follows.
// Pair classes are a pure function of (sigma_rel, tau_rel), so a move only
// re-classifies the pairs whose sigma_rel changed.
int RelOf(const std::vector<BucketIndex>& bucket_of, ElementId e,
          ElementId x) {
  const BucketIndex be = bucket_of[static_cast<std::size_t>(e)];
  const BucketIndex bx = bucket_of[static_cast<std::size_t>(x)];
  if (be < bx) return -1;
  if (be > bx) return 1;
  return 0;
}

// The PairCounts slot that a pair with relations (sigma_rel, tau_rel)
// belongs to, for the orientation where sigma is the first-listed ranking.
std::int64_t& ClassSlot(PairCounts& counts, int sigma_rel, int tau_rel) {
  if (sigma_rel == 0 && tau_rel == 0) return counts.tied_both;
  if (sigma_rel == 0) return counts.tied_sigma_only;
  if (tau_rel == 0) return counts.tied_tau_only;
  return sigma_rel == tau_rel ? counts.concordant : counts.discordant;
}

// Mirror of a stored classification: counts_[j][i] sees the same pairs with
// the roles of sigma and tau swapped, so only the one-sided tie classes
// trade places.
PairCounts Mirrored(const PairCounts& counts) {
  PairCounts mirror = counts;
  std::swap(mirror.tied_sigma_only, mirror.tied_tau_only);
  return mirror;
}

}  // namespace

StatusOr<IncrementalDistanceMatrix> IncrementalDistanceMatrix::Create(
    MetricKind kind, const std::vector<BucketOrder>& lists) {
  if (lists.empty()) {
    return Status::InvalidArgument(
        "IncrementalDistanceMatrix needs at least one list");
  }
  const std::size_t n = lists.front().n();
  for (const BucketOrder& order : lists) {
    if (order.n() != n) {
      return Status::InvalidArgument(
          "IncrementalDistanceMatrix needs equal universe sizes");
    }
  }
  std::vector<PreparedRanking> prepared;
  prepared.reserve(lists.size());
  for (const BucketOrder& order : lists) {
    prepared.emplace_back(order);
  }
  return IncrementalDistanceMatrix(kind, std::move(prepared));
}

IncrementalDistanceMatrix::IncrementalDistanceMatrix(
    MetricKind kind, std::vector<PreparedRanking> prepared)
    : kind_(kind), prepared_(std::move(prepared)) {
  const std::size_t m = prepared_.size();
  matrix_.assign(m, std::vector<double>(m, 0.0));
  if (UsesPairCounts()) {
    counts_.assign(m, std::vector<PairCounts>(m));
  }
  // Initial fill is serial: the engine's contract is serialized updates, so
  // construction follows the same single-writer discipline (and the upper
  // triangle is computed once and mirrored, like DistanceMatrix).
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      double value;
      if (UsesPairCounts()) {
        const PairCounts counts =
            ComputePairCounts(prepared_[i], prepared_[j], scratch_);
        counts_[i][j] = counts;
        counts_[j][i] = Mirrored(counts);
        value = ValueFromCounts(counts);
      } else {
        value = EvalPrepared(kind_, prepared_[i], prepared_[j], scratch_);
      }
      matrix_[i][j] = value;
      matrix_[j][i] = value;
    }
  }
}

bool IncrementalDistanceMatrix::UsesPairCounts() const {
  return kind_ == MetricKind::kKprof || kind_ == MetricKind::kKHaus;
}

double IncrementalDistanceMatrix::ValueFromCounts(
    const PairCounts& counts) const {
  // Same post-processing expressions as the legacy metrics (Kprof and
  // KHausdorff both reduce their exact integer counts this way), so the
  // delta-maintained values are bit-identical to a full recompute.
  if (kind_ == MetricKind::kKprof) {
    return static_cast<double>(TwiceKprofFromCounts(counts)) / 2.0;
  }
  RANKTIES_DCHECK(kind_ == MetricKind::kKHaus);
  return static_cast<double>(KHausdorffFromCounts(counts));
}

void IncrementalDistanceMatrix::RefreshRow(std::size_t list) {
  const std::size_t m = prepared_.size();
  for (std::size_t j = 0; j < m; ++j) {
    if (j == list) continue;
    double value;
    if (UsesPairCounts()) {
      const PairCounts counts =
          ComputePairCounts(prepared_[list], prepared_[j], scratch_);
      counts_[list][j] = counts;
      counts_[j][list] = Mirrored(counts);
      value = ValueFromCounts(counts);
    } else {
      value = EvalPrepared(kind_, prepared_[list], prepared_[j], scratch_);
    }
    matrix_[list][j] = value;
    matrix_[j][list] = value;
  }
  pairs_reevaluated_ += static_cast<std::int64_t>(m) - 1;
  RANKTIES_OBS_COUNT("incremental.rows_refreshed", 1);
  RANKTIES_OBS_COUNT("incremental.pairs_reevaluated",
                     static_cast<std::int64_t>(m) - 1);
}

void IncrementalDistanceMatrix::ApplyCountDeltas(
    std::size_t list, const std::vector<RelChange>& affected) {
  const std::size_t m = prepared_.size();
  std::int64_t cells_touched = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (j == list) continue;
    const std::vector<BucketIndex>& tau_of = prepared_[j].bucket_of();
    PairCounts& row_counts = counts_[list][j];
    PairCounts& mirror_counts = counts_[j][list];
    for (const RelChange& change : affected) {
      if (change.old_rel == change.new_rel) continue;
      const BucketIndex te = tau_of[static_cast<std::size_t>(change.e)];
      const BucketIndex tx = tau_of[static_cast<std::size_t>(change.x)];
      const int tau_rel = te < tx ? -1 : (te > tx ? 1 : 0);
      ClassSlot(row_counts, change.old_rel, tau_rel) -= 1;
      ClassSlot(row_counts, change.new_rel, tau_rel) += 1;
      // counts_[j][list] classifies with sigma = list j, whose relations
      // did not change — only the tau side (the mutated list) did.
      ClassSlot(mirror_counts, tau_rel, change.old_rel) -= 1;
      ClassSlot(mirror_counts, tau_rel, change.new_rel) += 1;
      ++cells_touched;
    }
    const double value = ValueFromCounts(row_counts);
    matrix_[list][j] = value;
    matrix_[j][list] = value;
  }
  pairs_reevaluated_ += static_cast<std::int64_t>(m) - 1;
  RANKTIES_OBS_COUNT("incremental.count_delta_cells", cells_touched);
  RANKTIES_OBS_COUNT("incremental.pairs_reevaluated",
                     static_cast<std::int64_t>(m) - 1);
}

Status IncrementalDistanceMatrix::MoveToBucket(std::size_t list, ElementId e,
                                               std::size_t target_bucket) {
  if (list >= prepared_.size()) {
    return Status::InvalidArgument("list index out of range");
  }
  PreparedRanking& ranking = prepared_[list];
  if (e < 0 || static_cast<std::size_t>(e) >= ranking.n()) {
    return Status::InvalidArgument("element out of range");
  }
  if (target_bucket >= ranking.num_buckets()) {
    return Status::InvalidArgument("target bucket out of range");
  }
  const std::size_t source = static_cast<std::size_t>(
      ranking.bucket_of()[static_cast<std::size_t>(e)]);
  // A no-op edit costs nothing on either maintenance path (the
  // pairs-reevaluated accounting would otherwise depend on the metric).
  if (source == target_bucket) return Status::Ok();
  if (!UsesPairCounts()) {
    Status moved = ranking.MoveToBucket(e, target_bucket);
    if (!moved.ok()) return moved;
    RefreshRow(list);
    RANKTIES_FLIGHT(obs::FlightEventId::kIncrementalMove,
                    static_cast<std::int64_t>(list),
                    static_cast<std::int64_t>(e),
                    static_cast<std::int64_t>(prepared_.size()) - 1);
    return Status::Ok();
  }
  // Snapshot the relations that can change — pairs (e, x) with x in the
  // bucket span [min(src, dst), max(src, dst)] — before the edit.
  const std::size_t lo = std::min(source, target_bucket);
  const std::size_t hi = std::max(source, target_bucket);
  CaptureAffected(ranking, e, lo, hi);
  Status moved = ranking.MoveToBucket(e, target_bucket);
  if (!moved.ok()) return moved;
  FinishAffected(ranking, e);
  ApplyCountDeltas(list, affected_scratch_);
  RANKTIES_FLIGHT(obs::FlightEventId::kIncrementalMove,
                  static_cast<std::int64_t>(list),
                  static_cast<std::int64_t>(e),
                  static_cast<std::int64_t>(prepared_.size()) - 1);
  return Status::Ok();
}

Status IncrementalDistanceMatrix::MoveToNewBucket(std::size_t list,
                                                  ElementId e,
                                                  std::size_t before_bucket) {
  if (list >= prepared_.size()) {
    return Status::InvalidArgument("list index out of range");
  }
  PreparedRanking& ranking = prepared_[list];
  if (e < 0 || static_cast<std::size_t>(e) >= ranking.n()) {
    return Status::InvalidArgument("element out of range");
  }
  if (before_bucket > ranking.num_buckets()) {
    return Status::InvalidArgument("insertion position out of range");
  }
  const std::size_t source = static_cast<std::size_t>(
      ranking.bucket_of()[static_cast<std::size_t>(e)]);
  const std::size_t source_size =
      ranking.bucket_offset()[source + 1] - ranking.bucket_offset()[source];
  // Already a singleton at this spot: no-op on either maintenance path.
  if (source_size == 1 &&
      (before_bucket == source || before_bucket == source + 1)) {
    return Status::Ok();
  }
  if (!UsesPairCounts()) {
    Status moved = ranking.MoveToNewBucket(e, before_bucket);
    if (!moved.ok()) return moved;
    RefreshRow(list);
    RANKTIES_FLIGHT(obs::FlightEventId::kIncrementalMove,
                    static_cast<std::int64_t>(list),
                    static_cast<std::int64_t>(e),
                    static_cast<std::int64_t>(prepared_.size()) - 1);
    return Status::Ok();
  }
  // Relations change only against elements e crosses: buckets [pos, src]
  // when moving ahead, (src, pos) when moving behind.
  const std::size_t lo = std::min(source, before_bucket);
  const std::size_t hi = before_bucket > source ? before_bucket - 1 : source;
  CaptureAffected(ranking, e, lo, hi);
  Status moved = ranking.MoveToNewBucket(e, before_bucket);
  if (!moved.ok()) return moved;
  FinishAffected(ranking, e);
  ApplyCountDeltas(list, affected_scratch_);
  RANKTIES_FLIGHT(obs::FlightEventId::kIncrementalMove,
                  static_cast<std::int64_t>(list),
                  static_cast<std::int64_t>(e),
                  static_cast<std::int64_t>(prepared_.size()) - 1);
  return Status::Ok();
}

void IncrementalDistanceMatrix::CaptureAffected(const PreparedRanking& ranking,
                                                ElementId e, std::size_t lo,
                                                std::size_t hi) {
  affected_scratch_.clear();
  const std::vector<ElementId>& by_bucket = ranking.by_bucket();
  const std::vector<std::size_t>& offset = ranking.bucket_offset();
  const std::vector<BucketIndex>& bucket_of = ranking.bucket_of();
  for (std::size_t slot = offset[lo]; slot < offset[hi + 1]; ++slot) {
    const ElementId x = by_bucket[slot];
    if (x == e) continue;
    affected_scratch_.push_back(
        RelChange{e, x, RelOf(bucket_of, e, x), 0});
  }
}

void IncrementalDistanceMatrix::FinishAffected(
    const PreparedRanking& ranking, ElementId e) {
  // Bucket indices may have shifted (a collapsed source bucket renumbers
  // the suffix) but shifts apply to both sides of every comparison, so the
  // post-edit bucket_of still yields the correct relation signs.
  const std::vector<BucketIndex>& bucket_of = ranking.bucket_of();
  for (RelChange& change : affected_scratch_) {
    change.new_rel = RelOf(bucket_of, e, change.x);
  }
}

Status IncrementalDistanceMatrix::ReplaceList(std::size_t list,
                                              const BucketOrder& order) {
  if (list >= prepared_.size()) {
    return Status::InvalidArgument("list index out of range");
  }
  if (order.n() != n()) {
    return Status::InvalidArgument(
        "ReplaceList needs the corpus universe size");
  }
  prepared_[list] = PreparedRanking(order);
  RefreshRow(list);
  RANKTIES_FLIGHT(obs::FlightEventId::kIncrementalReplace,
                  static_cast<std::int64_t>(list),
                  static_cast<std::int64_t>(prepared_.size()) - 1);
  return Status::Ok();
}

}  // namespace rankties
