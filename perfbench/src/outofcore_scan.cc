// outofcore_scan: the disk path. m=128 skewed lists on n=8192 elements
// (alternating Pareto 1.2 / skew-normal 6 scores quantized to 48 levels)
// are written as a rankties-corpus-v1 file with 16 KiB blocks and 8 lists
// per chunk, then reopened with a Pager budget of corpus/5. The workload
// cycles OutOfCoreDistanceMatrix over the four kinds plus one
// StreamingMedianRankScoresQuad under a 1 MiB accumulation budget (several
// element passes). The working set is 5x the cache, so store (pager misses,
// CRC checks, chunk decode) and the core/outofcore chunk sweep do most of
// the work; the store write path shows in setup_s.

#include <array>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <vector>

#include "core/batch_engine.h"
#include "core/median_rank.h"
#include "core/outofcore.h"
#include "harness.h"
#include "inputs.h"
#include "store/corpus_reader.h"
#include "store/corpus_writer.h"
#include "util/checked_math.h"
#include "util/stopwatch.h"

namespace rankties::perfbench {
namespace {

constexpr std::size_t kLists = 128;
constexpr std::size_t kDomain = 8192;
constexpr std::uint32_t kBlockSize = 16 * 1024;
constexpr std::uint64_t kListsPerChunk = 8;
// Corpus bytes / cache budget.
constexpr std::uint64_t kBudgetDivisor = 5;
// Accumulation budget of the streaming median: m * 8 bytes per element
// gives ~1k elements per pass, so one median makes several passes.
constexpr std::size_t kMedianBudget = std::size_t{1} << 20;
// Timed in-RAM rebuilds per kind; outofcore.ram_ratio uses their median.
constexpr int kInRamReps = 5;

constexpr std::array<MetricKind, 4> kCycle = {
    MetricKind::kKprof, MetricKind::kFprof, MetricKind::kKHaus,
    MetricKind::kFHaus};

using Matrix = std::vector<std::vector<double>>;

StatusOr<Matrix> TracedOutOfCoreMatrix(MetricKind kind,
                                       store::CorpusReader& reader) {
  switch (kind) {
    case MetricKind::kKprof: {
      obs::TraceSpan span("outofcore.matrix.kprof");
      return OutOfCoreDistanceMatrix(kind, reader);
    }
    case MetricKind::kFprof: {
      obs::TraceSpan span("outofcore.matrix.fprof");
      return OutOfCoreDistanceMatrix(kind, reader);
    }
    case MetricKind::kKHaus: {
      obs::TraceSpan span("outofcore.matrix.khaus");
      return OutOfCoreDistanceMatrix(kind, reader);
    }
    case MetricKind::kFHaus: {
      obs::TraceSpan span("outofcore.matrix.fhaus");
      return OutOfCoreDistanceMatrix(kind, reader);
    }
  }
  return Status::InvalidArgument("unknown metric kind");
}

/// Cache and engine counters; deltas around each op split them by op class.
struct IoCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t bytes_read = 0;
  std::int64_t evictions = 0;
  std::int64_t chunk_loads = 0;     // obs: zero unless obs is on
  std::int64_t element_passes = 0;  // obs: zero unless obs is on

  static IoCounters Read(const store::Pager& pager) {
    IoCounters c;
    c.hits = pager.hits();
    c.misses = pager.misses();
    c.bytes_read = pager.bytes_read();
    c.evictions = pager.evictions();
    c.chunk_loads = obs::GetCounter("outofcore.chunk_loads")->Value();
    c.element_passes = obs::GetCounter("outofcore.element_passes")->Value();
    return c;
  }
  void AddDelta(const IoCounters& before, const IoCounters& after) {
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    bytes_read += after.bytes_read - before.bytes_read;
    evictions += after.evictions - before.evictions;
    chunk_loads += after.chunk_loads - before.chunk_loads;
    element_passes += after.element_passes - before.element_passes;
  }
};

class OutOfCoreScan final : public Workload {
 public:
  explicit OutOfCoreScan(const Options& options)
      : path_(options.work_dir + "/outofcore_scan-seed" +
              std::to_string(options.seed) + ".rktc") {
    Rng rng(SeedFor(options.seed, 11));
    raw_ = SkewedLists(kLists, kDomain, rng);
  }

  ~OutOfCoreScan() override {
    reader_.reset();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  Status SetUp() override {
    reader_.reset();
    StatusOr<std::vector<BucketOrder>> lists = Ingest(raw_);
    if (!lists.ok()) return lists.status();
    lists_ = std::move(*lists);

    const std::int64_t write_start = MonotonicNanos();
    store::CorpusWriter::Options layout;
    layout.block_size = kBlockSize;
    layout.lists_per_chunk = kListsPerChunk;
    StatusOr<store::CorpusWriter> writer =
        store::CorpusWriter::Create(path_, kDomain, layout);
    if (!writer.ok()) return writer.status();
    for (const BucketOrder& order : lists_) {
      Status status = writer->Append(order);
      if (!status.ok()) return status;
    }
    Status finished = writer->Finish();
    if (!finished.ok()) return finished;
    write_us_.push_back(MicrosBetween(write_start, MonotonicNanos()));

    std::error_code error;
    corpus_bytes_ = std::filesystem::file_size(path_, error);
    if (error) return Status::Internal("cannot stat " + path_);
    budget_bytes_ = corpus_bytes_ / kBudgetDivisor;
    // Pin admits a frame before evicting, so peak residency can pass the
    // capacity by one block: give that block to the slack.
    store::Pager::Options cache;
    cache.capacity_bytes =
        static_cast<std::size_t>(budget_bytes_ - kBlockSize);
    StatusOr<store::CorpusReader> reader =
        store::CorpusReader::Open(path_, cache);
    if (!reader.ok()) return reader.status();
    reader_.emplace(std::move(*reader));
    return Status::Ok();
  }

  void Prepare(Tally& tally) override {
    std::printf("# corpus_bytes=%llu cache_budget_bytes=%llu chunks=%zu\n",
                static_cast<unsigned long long>(corpus_bytes_),
                static_cast<unsigned long long>(budget_bytes_),
                reader_->num_chunks());
    for (std::size_t k = 0; k < kCycle.size(); ++k) {
      reference_[k] = DistanceMatrix(kCycle[k], lists_);
    }
    // Rebuilds time the in-RAM twin for outofcore.ram_ratio. The first
    // matrix calls of a process run several times slower than later ones,
    // so the first round of rebuilds is not timed.
    std::array<std::vector<double>, kCycle.size()> in_ram_us;
    for (int rep = 0; rep <= kInRamReps; ++rep) {
      for (std::size_t k = 0; k < kCycle.size(); ++k) {
        const std::int64_t start = MonotonicNanos();
        const Matrix again = DistanceMatrix(kCycle[k], lists_);
        const double us = MicrosBetween(start, MonotonicNanos());
        if (rep > 0) in_ram_us[k].push_back(us);
        tally.Check(again == reference_[k],
                    "outofcore_scan: in-RAM DistanceMatrix is not "
                    "repeatable");
      }
    }
    for (std::size_t k = 0; k < kCycle.size(); ++k) {
      in_ram_us_[k] = Percentile(in_ram_us[k], 0.5);
    }
    StatusOr<std::vector<std::int64_t>> scores =
        MedianRankScoresQuad(lists_, MedianPolicy::kLower);
    if (tally.Check(scores.ok(), "outofcore_scan: MedianRankScoresQuad")) {
      median_reference_ = std::move(*scores);
    }
    RunCycle(tally);  // warm-up
  }

  void Run(double seconds, Tally& tally) override {
    ops_ = matrix_ops_ = median_ops_ = 0;
    matrix_seconds_ = median_seconds_ = 0.0;
    matrix_io_ = median_io_ = IoCounters{};
    for (std::vector<double>& us : matrix_us_) us.clear();
    cycle_rate_.clear();
    pair_rate_.clear();
    cell_rate_.clear();
    while (matrix_seconds_ + median_seconds_ < seconds) {
      const double matrix_before = matrix_seconds_;
      const double median_before = median_seconds_;
      RunCycle(tally);
      const double matrix_s = matrix_seconds_ - matrix_before;
      const double median_s = median_seconds_ - median_before;
      cycle_rate_.push_back(static_cast<double>(kCycle.size() + 1) /
                            (matrix_s + median_s));
      pair_rate_.push_back(static_cast<double>(kCycle.size()) * Pairs() /
                           matrix_s);
      cell_rate_.push_back(Cells() / median_s);
    }
    // The untraced phase's matrix times are the numerator of
    // outofcore.ram_ratio, so tracing cost stays out of the ratio.
    if (!obs::TraceRecorder::Global().recording()) {
      for (std::size_t k = 0; k < kCycle.size(); ++k) {
        untraced_matrix_us_[k] = Percentile(matrix_us_[k], 0.5);
      }
    }
  }

  void FinalCheck(Tally&) override {}

  void EndToEnd(Metrics& out) const override {
    const auto cycles = static_cast<std::int64_t>(cycle_rate_.size());
    out.Add("requests_per_s", Percentile(cycle_rate_, 0.5), "req/s", cycles);
    out.Add("matrix_pairs_per_s", Percentile(pair_rate_, 0.5), "pairs/s",
            cycles);
    out.Add("median_cells_per_s", Percentile(cell_rate_, 0.5), "cells/s",
            cycles);
  }

  void Layers(const std::vector<obs::SpanRecord>& spans,
              Metrics& out) const override {
    const std::array<SpanStats, 4> matrix = {
        StatsOf(spans, "outofcore.matrix.kprof"),
        StatsOf(spans, "outofcore.matrix.fprof"),
        StatsOf(spans, "outofcore.matrix.khaus"),
        StatsOf(spans, "outofcore.matrix.fhaus")};
    out.Add("outofcore.matrix_ms.kprof", matrix[0].MeanUs() * 1e-3, "ms",
            matrix[0].count);
    out.Add("outofcore.matrix_ms.fprof", matrix[1].MeanUs() * 1e-3, "ms",
            matrix[1].count);
    out.Add("outofcore.matrix_ms.khaus", matrix[2].MeanUs() * 1e-3, "ms",
            matrix[2].count);
    out.Add("outofcore.matrix_ms.fhaus", matrix[3].MeanUs() * 1e-3, "ms",
            matrix[3].count);
    const SpanStats median = StatsOf(spans, "outofcore.median");
    out.Add("outofcore.median_ms", median.MeanUs() * 1e-3, "ms",
            median.count);
    double disk_us = 0.0;
    double ram_us = 0.0;
    for (std::size_t k = 0; k < kCycle.size(); ++k) {
      disk_us += untraced_matrix_us_[k];
      ram_us += in_ram_us_[k];
    }
    out.Add("outofcore.ram_ratio", disk_us / ram_us, "ratio");
    out.Add("outofcore.chunk_loads_per_matrix",
            Per(matrix_io_.chunk_loads, matrix_ops_), "count", matrix_ops_);
    out.Add("outofcore.element_passes_per_median",
            Per(median_io_.element_passes, median_ops_), "count",
            median_ops_);

    const std::int64_t hits = matrix_io_.hits + median_io_.hits;
    const std::int64_t misses = matrix_io_.misses + median_io_.misses;
    out.Add("store.cache_hit_ratio", Per(hits, hits + misses), "ratio",
            hits + misses);
    out.Add("store.bytes_read_per_pair",
            static_cast<double>(matrix_io_.bytes_read) /
                (static_cast<double>(matrix_ops_) * Pairs()),
            "B", matrix_ops_);
    out.Add("store.evictions_per_op",
            Per(matrix_io_.evictions + median_io_.evictions, ops_), "count",
            ops_);
    out.Add("store.peak_resident_ratio",
            static_cast<double>(reader_->pager().peak_resident_bytes()) /
                static_cast<double>(budget_bytes_),
            "ratio");
    // The library's own span, opened on the calling thread by every read
    // the ops make.
    const SpanStats read = StatsOf(spans, "store.read_chunk");
    out.Add("store.read_chunk_us", read.MeanUs(), "us", read.count);
    out.Add("store.write_mb_per_s",
            static_cast<double>(corpus_bytes_) / (1 << 20) /
                (Percentile(write_us_, 0.5) * 1e-6),
            "MiB/s", static_cast<std::int64_t>(write_us_.size()));
  }

  std::int64_t phase_ops() const override { return ops_; }
  double phase_seconds() const override {
    return matrix_seconds_ + median_seconds_;
  }

 private:
  static double Pairs() {
    return static_cast<double>(CheckedChoose2(CheckedInt64(kLists)));
  }
  static double Cells() {
    return static_cast<double>(
        CheckedMul(CheckedInt64(kLists), CheckedInt64(kDomain)));
  }
  static double Per(std::int64_t count, std::int64_t base) {
    return base == 0 ? 0.0
                     : static_cast<double>(count) / static_cast<double>(base);
  }

  bool WithinBudget() const {
    return static_cast<std::uint64_t>(
               reader_->pager().peak_resident_bytes()) <= budget_bytes_;
  }

  void RunCycle(Tally& tally) {
    for (std::size_t k = 0; k < kCycle.size(); ++k) {
      const IoCounters before = IoCounters::Read(reader_->pager());
      const std::int64_t start = MonotonicNanos();
      const StatusOr<Matrix> matrix = TracedOutOfCoreMatrix(kCycle[k],
                                                            *reader_);
      const double us = MicrosBetween(start, MonotonicNanos());
      matrix_io_.AddDelta(before, IoCounters::Read(reader_->pager()));
      matrix_us_[k].push_back(us);
      tally.Op(matrix.ok() && *matrix == reference_[k] && WithinBudget(),
               "outofcore_scan: OutOfCoreDistanceMatrix differs from "
               "DistanceMatrix or broke the cache budget",
               true);
      ++ops_;
      ++matrix_ops_;
      matrix_seconds_ += us * 1e-6;
    }

    OutOfCoreOptions options;
    options.memory_budget_bytes = kMedianBudget;
    const IoCounters before = IoCounters::Read(reader_->pager());
    const std::int64_t start = MonotonicNanos();
    StatusOr<std::vector<std::int64_t>> scores(
        Status::InvalidArgument("unset"));
    {
      obs::TraceSpan span("outofcore.median");
      scores = StreamingMedianRankScoresQuad(*reader_, MedianPolicy::kLower,
                                             options);
    }
    const double us = MicrosBetween(start, MonotonicNanos());
    median_io_.AddDelta(before, IoCounters::Read(reader_->pager()));
    tally.Op(scores.ok() && *scores == median_reference_ && WithinBudget(),
             "outofcore_scan: StreamingMedianRankScoresQuad differs from "
             "MedianRankScoresQuad or broke the cache budget",
             true);
    ++ops_;
    ++median_ops_;
    median_seconds_ += us * 1e-6;
  }

  std::string path_;
  std::vector<RawList> raw_;
  std::vector<BucketOrder> lists_;
  std::optional<store::CorpusReader> reader_;
  std::uint64_t corpus_bytes_ = 0;
  std::uint64_t budget_bytes_ = 0;
  std::vector<double> write_us_;

  std::array<Matrix, kCycle.size()> reference_;
  std::array<double, kCycle.size()> in_ram_us_{};
  // Median out-of-core time per kind of the last untraced phase.
  std::array<double, kCycle.size()> untraced_matrix_us_{};
  std::vector<std::int64_t> median_reference_;

  std::int64_t ops_ = 0;
  std::int64_t matrix_ops_ = 0;
  std::int64_t median_ops_ = 0;
  double matrix_seconds_ = 0.0;
  double median_seconds_ = 0.0;
  IoCounters matrix_io_;
  IoCounters median_io_;
  std::array<std::vector<double>, kCycle.size()> matrix_us_;  // per kind
  // Per cycle: ops/s, matrix pairs/s, median cells/s.
  std::vector<double> cycle_rate_;
  std::vector<double> pair_rate_;
  std::vector<double> cell_rate_;
};

}  // namespace

std::unique_ptr<Workload> MakeOutOfCoreScan(const Options& options) {
  return std::make_unique<OutOfCoreScan>(options);
}

}  // namespace rankties::perfbench
