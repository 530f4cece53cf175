#ifndef RANKTIES_STORE_PAGER_H_
#define RANKTIES_STORE_PAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "store/file.h"
#include "util/mutex.h"
#include "util/status.h"

namespace rankties::store {

/// A sharded LRU block cache over one corpus file. `Pin` returns a
/// CRC-validated block payload and holds it resident until the matching
/// unpin; unpinned blocks stay cached in LRU order until capacity evicts
/// them.
///
/// Invariants:
///   - A pinned block (pin_count > 0) is never evicted. Pinning more bytes
///     than `capacity_bytes` is allowed (the engines pin a handful of
///     blocks at a time, but correctness must not depend on tuning); the
///     overcommit is observable via `store.cache.pinned_overflow` and the
///     cache shrinks back to capacity as pins release.
///   - Payload pointers handed out by `Pin` stay valid until the matching
///     unpin, across any number of concurrent pins of other blocks.
///   - Capacity is split evenly across shards with a floor of one frame
///     per shard, so the effective capacity is at least `shards` blocks.
///   - A miss evicts its LRU victim before admitting the new frame, so a
///     shard holds more than its share only while all its frames are
///     pinned. Callers that hold at most one pin each, with no more of
///     them than a shard has frames, keep `peak_resident_blocks()` within
///     `capacity_blocks()` however many of them pin concurrently.
///
/// Thread-safe: shards lock independently; all counters are atomic.
class Pager {
 public:
  struct Options {
    /// Cache budget in bytes; rounded down to whole blocks per shard.
    std::size_t capacity_bytes = std::size_t{8} << 20;
    /// Number of independent LRU shards. Tests use 1 shard to make the
    /// global eviction order deterministic.
    int shards = 8;
  };

  /// RAII pin on one block. Move-only; releases the pin on destruction.
  class PinnedBlock {
   public:
    PinnedBlock() = default;
    PinnedBlock(PinnedBlock&& other) noexcept
        : pager_(other.pager_), block_(other.block_), data_(other.data_) {
      other.pager_ = nullptr;
      other.data_ = nullptr;
    }
    PinnedBlock& operator=(PinnedBlock&& other) noexcept;
    PinnedBlock(const PinnedBlock&) = delete;
    PinnedBlock& operator=(const PinnedBlock&) = delete;
    ~PinnedBlock() { Release(); }

    /// CRC-validated payload bytes (`payload_bytes()` of them).
    const unsigned char* payload() const { return data_; }
    std::size_t payload_bytes() const;
    std::uint64_t block() const { return block_; }

    void Release();

   private:
    friend class Pager;
    PinnedBlock(Pager* pager, std::uint64_t block, const unsigned char* data)
        : pager_(pager), block_(block), data_(data) {}

    Pager* pager_ = nullptr;
    std::uint64_t block_ = 0;
    const unsigned char* data_ = nullptr;
  };

  /// `file` must outlive the pager and stay open. `block_size` and
  /// `num_blocks` come from a validated corpus header.
  Pager(const File* file, std::uint32_t block_size, std::uint64_t num_blocks,
        const Options& options);

  /// Pins `block`, reading and CRC-validating it on a miss. Fails with
  /// DataLoss on CRC mismatch or short read, OutOfRange past the end.
  StatusOr<PinnedBlock> Pin(std::uint64_t block);

  /// Releases one pin on `block`. Prefer the RAII `PinnedBlock`; exposed
  /// for tests of the refcount contract. Unpinning a block that is not
  /// pinned is a contract violation (RANKTIES_DCHECK).
  void UnpinBlock(std::uint64_t block);

  std::uint32_t block_size() const { return block_size_; }
  std::uint64_t num_blocks() const { return num_blocks_; }
  std::size_t capacity_blocks() const { return capacity_blocks_; }

  /// True when `block` is cached (pinned or not). Test hook.
  bool IsResident(std::uint64_t block) const;

  /// Process-lifetime-independent counters (work with obs disabled).
  std::int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::int64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  std::int64_t resident_blocks() const {
    return resident_blocks_.load(std::memory_order_relaxed);
  }
  std::int64_t peak_resident_blocks() const {
    return peak_resident_blocks_.load(std::memory_order_relaxed);
  }
  std::int64_t peak_resident_bytes() const {
    return peak_resident_blocks() * block_size_;
  }

 private:
  struct Frame {
    std::uint64_t block = 0;
    int pin_count = 0;
    /// Position in the shard's LRU list while unpinned.
    std::list<std::uint64_t>::iterator lru_pos;
    bool in_lru = false;
    std::vector<unsigned char> payload;
  };

  struct Shard {
    /// Every shard lock shares one class: the pager takes exactly one
    /// shard lock at a time, so same-class nesting is (correctly) an
    /// inversion the debug lock-order DAG would abort on.
    mutable Mutex mu{"store.pager.shard"};
    std::unordered_map<std::uint64_t, std::unique_ptr<Frame>> frames
        RANKTIES_GUARDED_BY(mu);
    /// Unpinned resident blocks, least recently used first.
    std::list<std::uint64_t> lru RANKTIES_GUARDED_BY(mu);
  };

  Shard& ShardFor(std::uint64_t block) {
    return shards_[block % shards_.size()];
  }
  const Shard& ShardFor(std::uint64_t block) const {
    return shards_[block % shards_.size()];
  }

  /// Evicts LRU unpinned frames while the shard holds more than `target`.
  void EvictDownTo(Shard& shard, std::size_t target)
      RANKTIES_REQUIRES(shard.mu);

  void NoteResident(std::int64_t delta);

  const File* file_;
  std::uint32_t block_size_;
  std::uint64_t num_blocks_;
  std::size_t capacity_blocks_;
  std::size_t shard_capacity_blocks_;
  std::vector<Shard> shards_;

  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> bytes_read_{0};
  std::atomic<std::int64_t> resident_blocks_{0};
  std::atomic<std::int64_t> peak_resident_blocks_{0};
};

}  // namespace rankties::store

#endif  // RANKTIES_STORE_PAGER_H_
