#include "store/pager.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "store/crc32.h"
#include "store/format.h"
#include "util/contracts.h"

namespace rankties::store {

Pager::PinnedBlock& Pager::PinnedBlock::operator=(
    PinnedBlock&& other) noexcept {
  if (this != &other) {
    Release();
    pager_ = other.pager_;
    block_ = other.block_;
    data_ = other.data_;
    other.pager_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

std::size_t Pager::PinnedBlock::payload_bytes() const {
  return pager_ == nullptr ? 0 : BlockPayloadBytes(pager_->block_size());
}

void Pager::PinnedBlock::Release() {
  if (pager_ != nullptr) {
    pager_->UnpinBlock(block_);
    pager_ = nullptr;
    data_ = nullptr;
  }
}

Pager::Pager(const File* file, std::uint32_t block_size,
             std::uint64_t num_blocks, const Options& options)
    : file_(file), block_size_(block_size), num_blocks_(num_blocks) {
  RANKTIES_DCHECK(file != nullptr);
  RANKTIES_DCHECK(block_size >= kMinBlockSize);
  const int shard_count = std::max(1, options.shards);
  // Every shard gets at least one frame: a zero-frame shard would deadlock
  // the first pin routed to it, and correctness must not depend on the
  // capacity/shard ratio.
  shard_capacity_blocks_ = std::max<std::size_t>(
      1, options.capacity_bytes / block_size /
             static_cast<std::size_t>(shard_count));
  capacity_blocks_ =
      shard_capacity_blocks_ * static_cast<std::size_t>(shard_count);
  shards_ = std::vector<Shard>(static_cast<std::size_t>(shard_count));
}

void Pager::NoteResident(std::int64_t delta) {
  const std::int64_t now =
      resident_blocks_.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = peak_resident_blocks_.load(std::memory_order_relaxed);
  while (now > peak && !peak_resident_blocks_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void Pager::EvictDownTo(Shard& shard, std::size_t target) {
  while (shard.frames.size() > target && !shard.lru.empty()) {
    const std::uint64_t victim = shard.lru.front();
    shard.lru.pop_front();
    auto it = shard.frames.find(victim);
    RANKTIES_DCHECK(it != shard.frames.end());
    RANKTIES_DCHECK(it->second->pin_count == 0);
    shard.frames.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    RANKTIES_OBS_COUNT("store.cache.evictions", 1);
    NoteResident(-1);
  }
}

StatusOr<Pager::PinnedBlock> Pager::Pin(std::uint64_t block) {
  if (block >= num_blocks_) {
    return Status::OutOfRange("block " + std::to_string(block) +
                              " out of range (corpus has " +
                              std::to_string(num_blocks_) + " blocks)");
  }
  Shard& shard = ShardFor(block);
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(block);
  if (it != shard.frames.end()) {
    Frame& frame = *it->second;
    if (frame.in_lru) {
      shard.lru.erase(frame.lru_pos);
      frame.in_lru = false;
    }
    ++frame.pin_count;
    hits_.fetch_add(1, std::memory_order_relaxed);
    RANKTIES_OBS_COUNT("store.cache.hits", 1);
    return PinnedBlock(this, block, frame.payload.data());
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  RANKTIES_OBS_COUNT("store.cache.misses", 1);
  std::vector<unsigned char> raw(block_size_);
  Status read = file_->ReadAt(BlockFileOffset(block_size_, block), raw.data(),
                              raw.size());
  if (!read.ok()) return read;
  bytes_read_.fetch_add(static_cast<std::int64_t>(raw.size()),
                        std::memory_order_relaxed);
  const std::size_t payload_bytes = BlockPayloadBytes(block_size_);
  const std::uint32_t want = LoadU32(raw.data() + payload_bytes);
  const std::uint32_t got = Crc32(raw.data(), payload_bytes);
  if (want != got) {
    return Status::DataLoss("CRC mismatch on block " + std::to_string(block));
  }

  // Evict before admitting: the shard, and with it the pager-wide peak
  // that concurrent pins in other shards add to, never passes capacity
  // while an unpinned victim exists.
  EvictDownTo(shard, shard_capacity_blocks_ - 1);
  auto frame = std::make_unique<Frame>();
  frame->block = block;
  frame->pin_count = 1;
  raw.resize(payload_bytes);
  frame->payload = std::move(raw);
  const unsigned char* data = frame->payload.data();
  shard.frames.emplace(block, std::move(frame));
  NoteResident(1);
  if (shard.frames.size() > shard_capacity_blocks_) {
    // Every other frame is pinned: over budget until pins release.
    RANKTIES_OBS_COUNT("store.cache.pinned_overflow", 1);
  }
  return PinnedBlock(this, block, data);
}

void Pager::UnpinBlock(std::uint64_t block) {
  Shard& shard = ShardFor(block);
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(block);
  RANKTIES_DCHECK(it != shard.frames.end() &&
                  "UnpinBlock on a block that is not resident");
  if (it == shard.frames.end()) return;
  Frame& frame = *it->second;
  RANKTIES_DCHECK(frame.pin_count > 0 &&
                  "UnpinBlock on a block with no outstanding pins");
  if (frame.pin_count <= 0) return;
  if (--frame.pin_count == 0) {
    frame.lru_pos = shard.lru.insert(shard.lru.end(), block);
    frame.in_lru = true;
    EvictDownTo(shard, shard_capacity_blocks_);
  }
}

bool Pager::IsResident(std::uint64_t block) const {
  const Shard& shard = ShardFor(block);
  MutexLock lock(shard.mu);
  return shard.frames.find(block) != shard.frames.end();
}

}  // namespace rankties::store
