// LRU / refcount contract tests for the store::Pager block cache. A
// single-shard pager makes the global eviction order deterministic, so the
// tests can pin down exactly which block leaves the cache and when.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_orders.h"
#include "gtest/gtest.h"
#include "store/corpus_reader.h"
#include "store/corpus_writer.h"
#include "store/format.h"
#include "store/pager.h"
#include "util/rng.h"

namespace rankties {
namespace {

std::string TestPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// Writes a corpus with 64-byte blocks so even a small corpus spans many
// blocks, and returns a reader whose cache holds exactly `capacity_blocks`
// of them, split over `shards` (one by default: a global LRU order).
store::CorpusReader OpenSmallBlockCorpus(const std::string& name,
                                         std::size_t capacity_blocks,
                                         int shards = 1) {
  const std::string path = TestPath(name);
  Rng rng(42);
  store::CorpusWriter::Options write_options;
  write_options.block_size = store::kMinBlockSize;
  write_options.lists_per_chunk = 4;
  StatusOr<store::CorpusWriter> writer =
      store::CorpusWriter::Create(path, 23, write_options);
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(writer->Append(RandomBucketOrder(23, rng)).ok());
  }
  EXPECT_TRUE(writer->Finish().ok());

  store::Pager::Options cache;
  cache.shards = shards;
  cache.capacity_bytes = capacity_blocks * store::kMinBlockSize;
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, cache);
  EXPECT_TRUE(reader.ok()) << reader.status();
  return std::move(*reader);
}

TEST(PagerTest, HitMissCountsAndResidency) {
  store::CorpusReader reader = OpenSmallBlockCorpus("pager_hits.corpus", 4);
  store::Pager& pager = reader.pager();
  ASSERT_GE(pager.num_blocks(), 6u);
  EXPECT_EQ(pager.capacity_blocks(), 4u);

  {
    StatusOr<store::Pager::PinnedBlock> pin = pager.Pin(0);
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(pin->block(), 0u);
    EXPECT_EQ(pin->payload_bytes(),
              store::BlockPayloadBytes(store::kMinBlockSize));
    EXPECT_NE(pin->payload(), nullptr);
  }
  EXPECT_EQ(pager.misses(), 1);
  EXPECT_EQ(pager.hits(), 0);
  EXPECT_TRUE(pager.IsResident(0));  // Unpinned but still cached.

  // Re-pinning the same block is a hit and reads no further bytes.
  const std::int64_t bytes_after_first = pager.bytes_read();
  {
    StatusOr<store::Pager::PinnedBlock> pin = pager.Pin(0);
    ASSERT_TRUE(pin.ok());
  }
  EXPECT_EQ(pager.hits(), 1);
  EXPECT_EQ(pager.misses(), 1);
  EXPECT_EQ(pager.bytes_read(), bytes_after_first);

  EXPECT_FALSE(pager.Pin(pager.num_blocks()).ok());  // Out of range.
}

TEST(PagerTest, EvictsInLruOrder) {
  store::CorpusReader reader = OpenSmallBlockCorpus("pager_lru.corpus", 4);
  store::Pager& pager = reader.pager();
  ASSERT_GE(pager.num_blocks(), 6u);

  // Fill the cache with blocks 0..3, releasing each pin immediately:
  // LRU order is now 0 (coldest) .. 3 (warmest).
  for (std::uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(pager.Pin(b).ok());
  }
  // Touch 0 so 1 becomes the coldest.
  ASSERT_TRUE(pager.Pin(0).ok());

  // Block 4 evicts 1; block 5 evicts 2.
  ASSERT_TRUE(pager.Pin(4).ok());
  EXPECT_FALSE(pager.IsResident(1));
  EXPECT_TRUE(pager.IsResident(0));
  ASSERT_TRUE(pager.Pin(5).ok());
  EXPECT_FALSE(pager.IsResident(2));
  EXPECT_TRUE(pager.IsResident(0));
  EXPECT_TRUE(pager.IsResident(3));
  EXPECT_EQ(pager.evictions(), 2);
  EXPECT_EQ(pager.resident_blocks(), 4);
}

TEST(PagerTest, PinnedBlocksSurviveOvercommitThenShrink) {
  store::CorpusReader reader =
      OpenSmallBlockCorpus("pager_overcommit.corpus", 2);
  store::Pager& pager = reader.pager();
  ASSERT_GE(pager.num_blocks(), 5u);
  EXPECT_EQ(pager.capacity_blocks(), 2u);

  // Pin more blocks than the cache can hold: all five must stay resident
  // and readable (pinned frames are never evicted), overcommitting the
  // budget...
  std::vector<store::Pager::PinnedBlock> pins;
  for (std::uint64_t b = 0; b < 5; ++b) {
    StatusOr<store::Pager::PinnedBlock> pin = pager.Pin(b);
    ASSERT_TRUE(pin.ok()) << pin.status();
    pins.push_back(std::move(*pin));
  }
  for (std::uint64_t b = 0; b < 5; ++b) {
    EXPECT_TRUE(pager.IsResident(b));
  }
  EXPECT_EQ(pager.resident_blocks(), 5);
  EXPECT_EQ(pager.evictions(), 0);
  EXPECT_EQ(pager.peak_resident_blocks(), 5);

  // ...and releasing the pins shrinks the cache back under capacity in
  // LRU (= release) order: the last two released survive.
  for (store::Pager::PinnedBlock& pin : pins) pin.Release();
  EXPECT_EQ(pager.resident_blocks(), 2);
  EXPECT_EQ(pager.evictions(), 3);
  EXPECT_FALSE(pager.IsResident(0));
  EXPECT_FALSE(pager.IsResident(1));
  EXPECT_FALSE(pager.IsResident(2));
  EXPECT_TRUE(pager.IsResident(3));
  EXPECT_TRUE(pager.IsResident(4));
}

TEST(PagerTest, MovedPinReleasesOnce) {
  store::CorpusReader reader = OpenSmallBlockCorpus("pager_move.corpus", 4);
  store::Pager& pager = reader.pager();
  {
    StatusOr<store::Pager::PinnedBlock> pin = pager.Pin(0);
    ASSERT_TRUE(pin.ok());
    store::Pager::PinnedBlock moved = std::move(*pin);
    EXPECT_EQ(moved.block(), 0u);
    moved.Release();
    moved.Release();  // Idempotent on an empty pin.
  }
  // A fresh pin still works and counts one hit.
  EXPECT_TRUE(pager.Pin(0).ok());
  EXPECT_EQ(pager.hits(), 1);
}

// Concurrent misses in different shards must not push residency past
// capacity: Pin evicts its victim before admitting the new frame, so with
// every thread holding at most one pin (and no more threads than a shard
// has frames) the peak stays within capacity_blocks().
TEST(PagerTest, ConcurrentPinsStayWithinCapacity) {
  constexpr std::size_t kThreads = 4;
  constexpr int kPinsPerThread = 3000;
  store::CorpusReader reader =
      OpenSmallBlockCorpus("pager_threads.corpus", 2 * kThreads, 2);
  store::Pager& pager = reader.pager();
  ASSERT_EQ(pager.capacity_blocks(), 2 * kThreads);
  ASSERT_GT(pager.num_blocks(), 2 * pager.capacity_blocks());

  // Reference payloads, read one block at a time.
  const std::size_t payload_bytes =
      store::BlockPayloadBytes(pager.block_size());
  std::vector<std::vector<unsigned char>> expected(pager.num_blocks());
  for (std::uint64_t b = 0; b < pager.num_blocks(); ++b) {
    StatusOr<store::Pager::PinnedBlock> pin = pager.Pin(b);
    ASSERT_TRUE(pin.ok()) << pin.status();
    expected[b].assign(pin->payload(), pin->payload() + payload_bytes);
  }

  const auto last_block = static_cast<std::int64_t>(pager.num_blocks()) - 1;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kPinsPerThread; ++i) {
        const auto block =
            static_cast<std::uint64_t>(rng.UniformInt(0, last_block));
        StatusOr<store::Pager::PinnedBlock> pin = pager.Pin(block);
        if (!pin.ok()) {
          ++mismatches[t];
          continue;
        }
        const unsigned char* want = expected[block].data();
        if (std::memcmp(pin->payload(), want, payload_bytes) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_GT(pager.evictions(), 0);
  EXPECT_LE(pager.peak_resident_blocks(),
            static_cast<std::int64_t>(pager.capacity_blocks()));
  EXPECT_LE(pager.resident_blocks(),
            static_cast<std::int64_t>(pager.capacity_blocks()));
}

#if RANKTIES_DCHECK_ENABLED

using PagerDeathTest = ::testing::Test;

TEST(PagerDeathTest, UnpinWithoutPinFires) {
  store::CorpusReader reader =
      OpenSmallBlockCorpus("pager_death_unpinned.corpus", 4);
  store::Pager& pager = reader.pager();
  ASSERT_TRUE(pager.Pin(0).ok());  // Resident, but no outstanding pin.
  EXPECT_DEATH(pager.UnpinBlock(0), "no outstanding pins");
}

TEST(PagerDeathTest, UnpinNonResidentFires) {
  store::CorpusReader reader =
      OpenSmallBlockCorpus("pager_death_nonresident.corpus", 4);
  store::Pager& pager = reader.pager();
  EXPECT_DEATH(pager.UnpinBlock(0), "not resident");
}

#endif  // RANKTIES_DCHECK_ENABLED

}  // namespace
}  // namespace rankties
