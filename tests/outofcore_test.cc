// Bit-identity tests for the out-of-core engines (core/outofcore.h): on
// the same corpus, the streaming median-rank aggregation must equal
// MedianRankScoresQuad / MedianInducedOrder and the blocked distance
// matrix must equal DistanceMatrix, bit for bit, even when tiny budgets
// force many passes and tiny blocks force heavy cache traffic — and at
// every pool lane count, since chunks are decoded on the pool's lanes.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/median_rank.h"
#include "core/outofcore.h"
#include "gen/random_orders.h"
#include "gen/score_dist.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "store/corpus_reader.h"
#include "store/corpus_writer.h"
#include "store/format.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rankties {
namespace {

std::string TestPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<BucketOrder> MixedCorpus(std::size_t m, std::size_t n,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BucketOrder> corpus;
  corpus.reserve(m);
  SkewedOrderConfig skew;
  for (std::size_t i = 0; i < m; ++i) {
    if (i % 3 == 0) {
      // Skewed quantized scores: heavy ties, the out-of-core bench shape.
      StatusOr<BucketOrder> order = SkewedScoreOrder(n, skew, rng);
      EXPECT_TRUE(order.ok());
      corpus.push_back(std::move(*order));
    } else {
      corpus.push_back(RandomBucketOrder(n, rng));
    }
  }
  return corpus;
}

constexpr std::uint32_t kBlockSize = 256;  // Real cache churn at test size.

void WriteCorpus(const std::string& path,
                 const std::vector<BucketOrder>& corpus,
                 std::uint64_t lists_per_chunk) {
  store::CorpusWriter::Options options;
  options.block_size = kBlockSize;
  options.lists_per_chunk = lists_per_chunk;
  StatusOr<store::CorpusWriter> writer =
      store::CorpusWriter::Create(path, corpus.front().n(), options);
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (const BucketOrder& order : corpus) {
    EXPECT_TRUE(writer->Append(order).ok());
  }
  EXPECT_TRUE(writer->Finish().ok());
}

store::CorpusReader Open(const std::string& path,
                         const store::Pager::Options& cache) {
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, cache);
  EXPECT_TRUE(reader.ok()) << reader.status();
  return std::move(*reader);
}

store::CorpusReader WriteAndOpen(const std::string& name,
                                 const std::vector<BucketOrder>& corpus,
                                 std::uint64_t lists_per_chunk,
                                 std::size_t cache_bytes) {
  const std::string path = TestPath(name);
  WriteCorpus(path, corpus, lists_per_chunk);
  store::Pager::Options cache;
  cache.capacity_bytes = cache_bytes;
  return Open(path, cache);
}

// Sets the global pool for one scope and restores the default on exit, so
// a failing assertion cannot leak a lane count into later tests.
class ScopedGlobalThreads {
 public:
  explicit ScopedGlobalThreads(std::size_t threads) {
    ThreadPool::SetGlobalThreads(threads);
  }
  ~ScopedGlobalThreads() { ThreadPool::SetGlobalThreads(0); }
  ScopedGlobalThreads(const ScopedGlobalThreads&) = delete;
  ScopedGlobalThreads& operator=(const ScopedGlobalThreads&) = delete;
};

// Turns obs on for one scope and restores the previous setting on exit, so
// a failing assertion cannot leave it on for later tests. SetEnabled is a
// no-op where obs is compiled out.
class ScopedObsEnabled {
 public:
  ScopedObsEnabled() : was_enabled_(obs::Enabled()) { obs::SetEnabled(true); }
  ~ScopedObsEnabled() { obs::SetEnabled(was_enabled_); }
  ScopedObsEnabled(const ScopedObsEnabled&) = delete;
  ScopedObsEnabled& operator=(const ScopedObsEnabled&) = delete;

 private:
  const bool was_enabled_;
};

constexpr std::size_t kLaneCounts[] = {1, 2, 4};

// A data block lying wholly inside chunk `c` (no byte shared with a
// neighboring chunk), so corrupting it breaks chunk `c` and only it.
std::uint64_t BlockInsideChunk(const store::CorpusReader& reader,
                               std::size_t c) {
  const std::uint64_t per_block = store::BlockPayloadBytes(kBlockSize);
  const store::ChunkEntry& entry = reader.chunk(c);
  const std::uint64_t block =
      (entry.payload_offset + per_block - 1) / per_block;
  EXPECT_LE((block + 1) * per_block,
            entry.payload_offset + entry.payload_bytes)
      << "chunk " << c << " spans no whole block";
  return block;
}

void FlipByte(const std::string& path, std::uint64_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

TEST(StreamingMedianTest, MatchesInRamForAllPolicies) {
  const std::vector<BucketOrder> corpus = MixedCorpus(14, 60, 21);
  store::CorpusReader reader =
      WriteAndOpen("streaming_median.corpus", corpus, 4, 2048);

  for (const MedianPolicy policy :
       {MedianPolicy::kLower, MedianPolicy::kUpper, MedianPolicy::kAverage}) {
    StatusOr<std::vector<std::int64_t>> in_ram =
        MedianRankScoresQuad(corpus, policy);
    ASSERT_TRUE(in_ram.ok());

    // A ~1KB budget forces multiple element passes over the corpus.
    OutOfCoreOptions options;
    options.memory_budget_bytes = 14 * sizeof(std::int64_t) * 16;
    StatusOr<std::vector<std::int64_t>> streamed =
        StreamingMedianRankScoresQuad(reader, policy, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(*streamed, *in_ram);

    StatusOr<BucketOrder> induced_in_ram = MedianInducedOrder(corpus, policy);
    ASSERT_TRUE(induced_in_ram.ok());
    StatusOr<BucketOrder> induced_streamed =
        StreamingMedianInducedOrder(reader, policy, options);
    ASSERT_TRUE(induced_streamed.ok());
    EXPECT_EQ(*induced_streamed, *induced_in_ram);
  }
}

TEST(StreamingMedianTest, ExtremeBudgetsAgree) {
  const std::vector<BucketOrder> corpus = MixedCorpus(9, 40, 22);
  store::CorpusReader reader =
      WriteAndOpen("streaming_median_budgets.corpus", corpus, 2, 1024);
  StatusOr<std::vector<std::int64_t>> in_ram =
      MedianRankScoresQuad(corpus, MedianPolicy::kAverage);
  ASSERT_TRUE(in_ram.ok());

  // One element per pass (minimum budget) and everything in one pass
  // (huge budget) must both match.
  OutOfCoreOptions one_element;
  one_element.memory_budget_bytes = 1;
  StatusOr<std::vector<std::int64_t>> tiny = StreamingMedianRankScoresQuad(
      reader, MedianPolicy::kAverage, one_element);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(*tiny, *in_ram);

  OutOfCoreOptions huge;
  huge.memory_budget_bytes = std::size_t{1} << 30;
  StatusOr<std::vector<std::int64_t>> single_pass =
      StreamingMedianRankScoresQuad(reader, MedianPolicy::kAverage, huge);
  ASSERT_TRUE(single_pass.ok());
  EXPECT_EQ(*single_pass, *in_ram);
}

TEST(OutOfCoreMatrixTest, MatchesInRamForAllMetricKinds) {
  const std::vector<BucketOrder> corpus = MixedCorpus(13, 48, 23);
  // One list per chunk leaves every diagonal block empty; 5 gives a short
  // last chunk; 13 and 20 make the corpus one chunk, so the band is the
  // whole corpus and no column chunk is decoded on a lane.
  // The sweep's counters are checked too, except where obs is compiled out.
  const ScopedObsEnabled obs_on;
  obs::Counter* const evals = obs::GetCounter("outofcore.metric_evals");
  obs::Counter* const loads = obs::GetCounter("outofcore.chunk_loads");
  for (const std::uint64_t lists_per_chunk : {1u, 5u, 13u, 20u}) {
    store::CorpusReader reader = WriteAndOpen(
        "outofcore_matrix_" + std::to_string(lists_per_chunk) + ".corpus",
        corpus, lists_per_chunk, 2048);
    for (const MetricKind kind : {MetricKind::kKprof, MetricKind::kFprof,
                                  MetricKind::kKHaus, MetricKind::kFHaus}) {
      const std::vector<std::vector<double>> in_ram =
          DistanceMatrix(kind, corpus);
      const std::int64_t evals_before = evals->Value();
      const std::int64_t loads_before = loads->Value();
      StatusOr<std::vector<std::vector<double>>> blocked =
          OutOfCoreDistanceMatrix(kind, reader);
      ASSERT_TRUE(blocked.ok()) << blocked.status();
      if (obs::Enabled()) {
        // Every pair once; each chunk once as the band and once more for
        // every earlier band.
        const auto chunks = static_cast<std::int64_t>(reader.num_chunks());
        EXPECT_EQ(evals->Value() - evals_before, 13 * 12 / 2)
            << "lists_per_chunk=" << lists_per_chunk;
        EXPECT_EQ(loads->Value() - loads_before, chunks * (chunks + 1) / 2)
            << "lists_per_chunk=" << lists_per_chunk;
      }
      ASSERT_EQ(blocked->size(), in_ram.size());
      for (std::size_t i = 0; i < in_ram.size(); ++i) {
        for (std::size_t j = 0; j < in_ram.size(); ++j) {
          // Bit-exact: same prepared kernels, same (i, j) argument order.
          EXPECT_EQ((*blocked)[i][j], in_ram[i][j])
              << MetricName(kind) << " lists_per_chunk=" << lists_per_chunk
              << " (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(OutOfCoreMatrixTest, SingleListCorpusIsZeroMatrix) {
  Rng rng(24);
  const std::vector<BucketOrder> corpus = {RandomBucketOrder(16, rng)};
  store::CorpusReader reader =
      WriteAndOpen("outofcore_single.corpus", corpus, 4, 1024);
  StatusOr<std::vector<std::vector<double>>> matrix =
      OutOfCoreDistanceMatrix(MetricKind::kKprof, reader);
  ASSERT_TRUE(matrix.ok());
  ASSERT_EQ(matrix->size(), 1u);
  EXPECT_EQ((*matrix)[0][0], 0.0);
}

TEST(OutOfCoreTest, CacheStatsAreLive) {
  // One lane: the serial read order makes the hit (shared boundary blocks
  // of neighboring chunks) and the bound below deterministic. With one
  // frame per shard, two lanes pinning in one shard at once may overcommit
  // it; BitExactAtEveryLaneCount covers the bound at several lane counts.
  ScopedGlobalThreads pool(1);
  const std::vector<BucketOrder> corpus = MixedCorpus(12, 48, 25);
  // Cache budget far below the corpus footprint: streaming must both miss
  // (capacity evictions) and hit (neighboring lists share blocks).
  store::CorpusReader reader =
      WriteAndOpen("outofcore_stats.corpus", corpus, 3, 1024);
  OutOfCoreOptions options;
  options.memory_budget_bytes = 12 * sizeof(std::int64_t) * 8;
  ASSERT_TRUE(
      StreamingMedianRankScoresQuad(reader, MedianPolicy::kLower, options)
          .ok());
  const store::Pager& pager = reader.pager();
  EXPECT_GT(pager.misses(), 0);
  EXPECT_GT(pager.hits(), 0);
  EXPECT_GT(pager.evictions(), 0);
  EXPECT_GT(pager.bytes_read(), 0);
  // Pin evicts before it admits, so even the reader's transient pin (one
  // block at a time) never takes the pager past its capacity.
  EXPECT_LE(pager.peak_resident_blocks(),
            static_cast<std::int64_t>(pager.capacity_blocks()));
}

// Chunks are decoded on the pool's lanes; the results must not depend on
// how many there are. The last chunk is shorter than the others (14 lists,
// 4 per chunk), so the ragged edge block is covered too.
TEST(OutOfCoreTest, BitExactAtEveryLaneCount) {
  const std::vector<BucketOrder> corpus = MixedCorpus(14, 52, 26);
  const std::string path = TestPath("outofcore_lanes.corpus");
  WriteCorpus(path, corpus, 4);
  StatusOr<std::vector<std::int64_t>> median_in_ram =
      MedianRankScoresQuad(corpus, MedianPolicy::kUpper);
  ASSERT_TRUE(median_in_ram.ok());
  constexpr MetricKind kKinds[] = {MetricKind::kKprof, MetricKind::kFprof,
                                   MetricKind::kKHaus, MetricKind::kFHaus};
  std::vector<std::vector<std::vector<double>>> in_ram;
  for (const MetricKind kind : kKinds) {
    in_ram.push_back(DistanceMatrix(kind, corpus));
  }

  for (const std::size_t lanes : kLaneCounts) {
    ScopedGlobalThreads pool(lanes);
    // One shard with at least one frame per lane: every lane holds at most
    // one pin, so the cache never has to overcommit.
    store::Pager::Options cache;
    cache.shards = 1;
    cache.capacity_bytes = 4 * kBlockSize;
    const store::CorpusReader reader = Open(path, cache);
    ASSERT_EQ(reader.chunk(reader.num_chunks() - 1).list_count, 2u);

    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      StatusOr<std::vector<std::vector<double>>> blocked =
          OutOfCoreDistanceMatrix(kKinds[k], reader);
      ASSERT_TRUE(blocked.ok()) << blocked.status();
      EXPECT_EQ(*blocked, in_ram[k])
          << MetricName(kKinds[k]) << " at " << lanes << " lanes";
    }
    OutOfCoreOptions options;
    options.memory_budget_bytes = 14 * sizeof(std::int64_t) * 10;
    StatusOr<std::vector<std::int64_t>> streamed =
        StreamingMedianRankScoresQuad(reader, MedianPolicy::kUpper, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(*streamed, *median_in_ram) << lanes << " lanes";
    EXPECT_LE(reader.pager().peak_resident_blocks(),
              static_cast<std::int64_t>(reader.pager().capacity_blocks()))
        << lanes << " lanes";
  }
}

// With two corrupt chunks, every lane count must report the lower one —
// the chunk the serial sweep stops at — not whichever lane failed first.
TEST(OutOfCoreTest, CorruptChunkErrorIsDeterministic) {
  const std::vector<BucketOrder> corpus = MixedCorpus(15, 40, 27);
  const std::string path = TestPath("outofcore_corrupt.corpus");
  WriteCorpus(path, corpus, 3);
  std::uint64_t bad_block = 0;
  std::uint64_t later_block = 0;
  {
    const store::CorpusReader pristine = Open(path, store::Pager::Options{});
    ASSERT_EQ(pristine.num_chunks(), 5u);
    bad_block = BlockInsideChunk(pristine, 1);
    later_block = BlockInsideChunk(pristine, 3);
  }
  FlipByte(path, store::BlockFileOffset(kBlockSize, bad_block) + 7);
  FlipByte(path, store::BlockFileOffset(kBlockSize, later_block) + 7);

  for (const std::size_t lanes : kLaneCounts) {
    ScopedGlobalThreads pool(lanes);
    const store::CorpusReader reader = Open(path, store::Pager::Options{});
    for (const MetricKind kind : {MetricKind::kKprof, MetricKind::kFHaus}) {
      StatusOr<std::vector<std::vector<double>>> matrix =
          OutOfCoreDistanceMatrix(kind, reader);
      ASSERT_FALSE(matrix.ok());
      EXPECT_EQ(matrix.status().code(), StatusCode::kDataLoss);
      EXPECT_EQ(matrix.status().message().rfind("chunk 1:", 0), 0u)
          << lanes << " lanes: " << matrix.status();
    }
    OutOfCoreOptions options;
    options.memory_budget_bytes = 15 * sizeof(std::int64_t) * 8;
    StatusOr<std::vector<std::int64_t>> scores =
        StreamingMedianRankScoresQuad(reader, MedianPolicy::kLower, options);
    ASSERT_FALSE(scores.ok());
    EXPECT_EQ(scores.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(scores.status().message().rfind("chunk 1:", 0), 0u)
        << lanes << " lanes: " << scores.status();
  }
}

}  // namespace
}  // namespace rankties
