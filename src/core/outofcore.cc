#include "core/outofcore.h"

#include <algorithm>
#include <utility>

#include "core/batch_engine.h"
#include "core/prepared.h"
#include "obs/obs.h"
#include "util/checked_math.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace rankties {

namespace {

// Per-thread raw payload buffer for CorpusReader::ReadChunk, so every lane
// decodes into its own bytes and keeps the allocation warm across chunks.
std::vector<unsigned char>& ThreadChunkBytes() {
  static thread_local std::vector<unsigned char> bytes;
  return bytes;
}

// Reads chunk `c` on the calling thread and counts the load.
Status LoadChunk(const store::CorpusReader& reader, std::size_t c,
                 std::vector<BucketOrder>* lists) {
  Status s = reader.ReadChunk(c, &ThreadChunkBytes(), lists);
  if (s.ok()) RANKTIES_OBS_COUNT("outofcore.chunk_loads", 1);
  return s;
}

// Global index of chunk `c`'s first list.
std::size_t FirstList(const store::CorpusReader& reader, std::size_t c) {
  return static_cast<std::size_t>(reader.chunk(c).first_list);
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
        const std::size_t first = FirstList(reader, c);
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
  const std::int64_t pairs = CheckedChoose2(CheckedInt64(m));
  obs::TraceSpan span("outofcore.distance_matrix");
  span.SetItems(pairs);

  // A lane decodes and prepares column chunk b itself, serially (no nested
  // ParallelFor).
  const ChunkSource source = [&](std::size_t b)
      -> StatusOr<std::pair<std::size_t, std::vector<PreparedRanking>>> {
    std::vector<BucketOrder> lists;
    Status read = LoadChunk(reader, b, &lists);
    if (!read.ok()) return read;
    std::vector<PreparedRanking> prepared;
    prepared.reserve(lists.size());
    for (const BucketOrder& order : lists) prepared.emplace_back(order);
    return std::make_pair(FirstList(reader, b), std::move(prepared));
  };
  const std::size_t chunks = reader.num_chunks();
  std::vector<BucketOrder> lists_a;
  for (std::size_t a = 0; a < chunks; ++a) {
    // The band is one chunk: a is decoded and prepared once, then shared
    // read-only by every block (a, b >= a).
    Status s = LoadChunk(reader, a, &lists_a);
    if (!s.ok()) return s;
    const std::vector<PreparedRanking> prepared_a = PrepareAll(lists_a);
    const std::size_t first = FirstList(reader, a);
    s = SweepBand(kind, a, {{first, prepared_a}}, chunks, source, matrix);
    if (!s.ok()) return s;
  }
  RANKTIES_OBS_COUNT("outofcore.metric_evals", pairs);
  return matrix;
}

}  // namespace rankties
