#include "core/outofcore.h"

#include <algorithm>
#include <utility>

#include "core/prepared.h"
#include "obs/obs.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace rankties {

namespace {

// One scratch per pool thread, mirroring batch_engine's ThreadScratch: the
// prepared kernels are zero-allocation on a warm scratch, and per-thread
// reuse keeps them warm across chunk pairs.
PairScratch& ThreadScratch() {
  static thread_local PairScratch scratch;
  return scratch;
}

// Per-thread raw payload buffer for CorpusReader::ReadChunk, so every lane
// decodes into its own bytes and keeps the allocation warm across chunks.
std::vector<unsigned char>& ThreadChunkBytes() {
  static thread_local std::vector<unsigned char> bytes;
  return bytes;
}

// Same kind dispatch and argument order as batch_engine's EvalPrepared:
// sigma = global list i, tau = global list j with i < j. Matching the
// in-RAM call sites exactly is what makes the blocked matrix bit-identical.
double EvalPreparedPair(MetricKind kind, const PreparedRanking& sigma,
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

// Fills one block of the matrix: chunk-a rows against chunk-b columns,
// both triangles, on this thread's scratch. On the diagonal block (the
// same chunk on both sides) only pairs j > i run. Returns the number of
// metric evaluations.
std::int64_t FillBlock(MetricKind kind,
                       const std::vector<PreparedRanking>& rows,
                       std::size_t first_row,
                       const std::vector<PreparedRanking>& cols,
                       std::size_t first_col, bool diagonal,
                       std::vector<std::vector<double>>& matrix) {
  PairScratch& scratch = ThreadScratch();
  std::int64_t evals = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = diagonal ? i + 1 : 0; j < cols.size(); ++j) {
      // Global row < global column always holds (chunk a <= chunk b), so
      // sigma/tau order matches the in-RAM upper triangle.
      const double d = EvalPreparedPair(kind, rows[i], cols[j], scratch);
      matrix[first_row + i][first_col + j] = d;
      matrix[first_col + j][first_row + i] = d;
      ++evals;
    }
  }
  return evals;
}

// Reads chunk `c` on the calling thread and counts the load.
Status LoadChunk(const store::CorpusReader& reader, std::size_t c,
                 std::vector<BucketOrder>* lists) {
  Status s = reader.ReadChunk(c, &ThreadChunkBytes(), lists);
  if (s.ok()) RANKTIES_OBS_COUNT("outofcore.chunk_loads", 1);
  return s;
}

// The lowest-index failure of a per-chunk status vector, so a parallel
// sweep reports the same chunk the serial order would have stopped at.
Status FirstFailure(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::vector<std::int64_t>> StreamingMedianRankScoresQuad(
    const store::CorpusReader& reader, MedianPolicy policy,
    const OutOfCoreOptions& options) {
  const std::size_t n = reader.n();
  const std::size_t m = static_cast<std::size_t>(reader.num_lists());
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  obs::TraceSpan span("outofcore.median_scores");
  span.SetItems(static_cast<std::int64_t>(m) * static_cast<std::int64_t>(n));

  // Element-block size: the accumulation buffer holds one m-entry rank
  // column per active element, so a block of E elements costs E*m*8 bytes.
  const std::size_t block_elems = std::clamp<std::size_t>(
      options.memory_budget_bytes / (m * sizeof(std::int64_t)), 1, n);

  std::vector<std::int64_t> scores(n);
  std::vector<std::int64_t> ranks(block_elems * m);
  const std::size_t chunks = reader.num_chunks();
  std::vector<Status> failures(chunks);
  for (std::size_t e0 = 0; e0 < n; e0 += block_elems) {
    const std::size_t e1 = std::min(e0 + block_elems, n);
    RANKTIES_OBS_COUNT("outofcore.element_passes", 1);
    // One pass over the corpus, one chunk per lane: every chunk writes its
    // own lists' doubled positions for the active element block, i.e. only
    // its own rank-column slots.
    ParallelFor(0, chunks, 1, [&](std::size_t lo, std::size_t hi) {
      std::vector<BucketOrder> chunk;
      for (std::size_t c = lo; c < hi; ++c) {
        Status s = LoadChunk(reader, c, &chunk);
        if (!s.ok()) {
          failures[c] = std::move(s);
          continue;
        }
        const std::size_t first =
            static_cast<std::size_t>(reader.chunk(c).first_list);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
          const BucketOrder& order = chunk[i];
          for (std::size_t e = e0; e < e1; ++e) {
            ranks[(e - e0) * m + (first + i)] =
                order.TwicePosition(static_cast<ElementId>(e));
          }
        }
      }
    });
    Status s = FirstFailure(failures);
    if (!s.ok()) return s;
    // The median of a multiset is accumulation-order-independent
    // (MedianQuad sorts), so chunk-at-a-time filling is bit-identical to
    // the in-RAM list-order loop.
    ParallelFor(e0, e1, 256, [&](std::size_t lo, std::size_t hi) {
      std::vector<std::int64_t> column(m);
      for (std::size_t e = lo; e < hi; ++e) {
        std::copy(ranks.begin() + static_cast<std::ptrdiff_t>((e - e0) * m),
                  ranks.begin() + static_cast<std::ptrdiff_t>((e - e0 + 1) * m),
                  column.begin());
        scores[e] = MedianQuad(column, policy);
      }
    });
  }
  return scores;
}

StatusOr<BucketOrder> StreamingMedianInducedOrder(
    const store::CorpusReader& reader, MedianPolicy policy,
    const OutOfCoreOptions& options) {
  StatusOr<std::vector<std::int64_t>> scores =
      StreamingMedianRankScoresQuad(reader, policy, options);
  if (!scores.ok()) return scores.status();
  return BucketOrder::FromIntKeys(*scores);
}

StatusOr<std::vector<std::vector<double>>> OutOfCoreDistanceMatrix(
    MetricKind kind, const store::CorpusReader& reader) {
  const std::size_t m = static_cast<std::size_t>(reader.num_lists());
  std::vector<std::vector<double>> matrix(m, std::vector<double>(m, 0.0));
  if (m < 2) return matrix;
  obs::TraceSpan span("outofcore.distance_matrix");
  span.SetItems(static_cast<std::int64_t>(m) *
                static_cast<std::int64_t>(m - 1) / 2);

  const std::size_t chunks = reader.num_chunks();
  std::vector<Status> failures(chunks);
  std::vector<BucketOrder> lists_a;
  for (std::size_t a = 0; a < chunks; ++a) {
    Status s = LoadChunk(reader, a, &lists_a);
    if (!s.ok()) return s;
    const std::size_t first_a =
        static_cast<std::size_t>(reader.chunk(a).first_list);
    std::vector<PreparedRanking> prepared_a(lists_a.size());
    ParallelFor(0, lists_a.size(), 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        prepared_a[i] = PreparedRanking(lists_a[i]);
      }
    });

    // One lane per block of row band a: the diagonal block (b == a) and
    // every cross block b > a. A cross lane decodes and freezes its chunk
    // b itself, serially, while chunk a stays prepared and shared
    // read-only. Every slot is written by exactly one lane.
    ParallelFor(a, chunks, 1, [&](std::size_t lo, std::size_t hi) {
      std::vector<BucketOrder> lists_b;
      std::vector<PreparedRanking> prepared_b;
      for (std::size_t b = lo; b < hi; ++b) {
        const bool diagonal = b == a;
        if (!diagonal) {
          Status read = LoadChunk(reader, b, &lists_b);
          if (!read.ok()) {
            failures[b] = std::move(read);
            continue;
          }
          prepared_b.clear();
          for (const BucketOrder& order : lists_b) {
            prepared_b.emplace_back(order);
          }
        }
        const std::vector<PreparedRanking>& cols =
            diagonal ? prepared_a : prepared_b;
        const auto first_b =
            static_cast<std::size_t>(reader.chunk(b).first_list);
        const std::int64_t evals = FillBlock(kind, prepared_a, first_a, cols,
                                             first_b, diagonal, matrix);
        RANKTIES_OBS_COUNT("outofcore.metric_evals", evals);
      }
    });
    s = FirstFailure(failures);
    if (!s.ok()) return s;
  }
  return matrix;
}

}  // namespace rankties
