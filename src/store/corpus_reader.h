#ifndef RANKTIES_STORE_CORPUS_READER_H_
#define RANKTIES_STORE_CORPUS_READER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rank/bucket_order.h"
#include "store/file.h"
#include "store/format.h"
#include "store/pager.h"
#include "util/status.h"

namespace rankties::store {

/// Reads a `rankties-corpus-v1` file through a `Pager`. `Open` validates
/// the header and chunk directory exhaustively (magic, version, CRCs,
/// size/offset consistency) so every later failure mode is a corrupt data
/// block, reported by `ReadChunk` as Status::DataLoss.
///
/// A chunk is the shard unit of the out-of-core engines: `ReadChunk`
/// materializes one chunk's lists as `BucketOrder`s, paging its blocks
/// through the shared LRU cache.
///
/// `ReadChunk` is const and thread-safe: the only mutable state it touches
/// is the caller's byte scratch and output vector plus the `Pager`, which
/// locks per shard. Concurrent readers of one `CorpusReader` (the pool
/// lanes of the out-of-core engines) each bring their own scratch.
class CorpusReader {
 public:
  /// Opens and validates `path`. `cache` configures the block cache.
  static StatusOr<CorpusReader> Open(const std::string& path,
                                     const Pager::Options& cache);

  CorpusReader(CorpusReader&&) noexcept = default;
  CorpusReader& operator=(CorpusReader&&) noexcept = default;

  std::size_t n() const { return static_cast<std::size_t>(header_.n); }
  std::uint64_t num_lists() const { return header_.num_lists; }
  std::size_t num_chunks() const { return directory_.size(); }
  const FileHeader& header() const { return header_; }
  const ChunkEntry& chunk(std::size_t c) const { return directory_[c]; }

  /// Decodes chunk `c` into `out` (cleared first). The lists are the
  /// corpus lists `[chunk(c).first_list, chunk(c).first_list +
  /// chunk(c).list_count)` in order. `scratch` holds the chunk's raw
  /// payload bytes during the decode; reusing one per thread keeps its
  /// allocation warm. Errors name the chunk: OutOfRange past the last
  /// chunk, DataLoss for a corrupt block or column.
  Status ReadChunk(std::size_t c, std::vector<unsigned char>* scratch,
                   std::vector<BucketOrder>* out) const;

  Pager& pager() { return *pager_; }
  const Pager& pager() const { return *pager_; }

 private:
  CorpusReader() = default;

  /// Heap-held so the Pager's back-pointer survives moves of the reader.
  std::unique_ptr<File> file_;
  FileHeader header_;
  std::vector<ChunkEntry> directory_;
  std::unique_ptr<Pager> pager_;
};

}  // namespace rankties::store

#endif  // RANKTIES_STORE_CORPUS_READER_H_
