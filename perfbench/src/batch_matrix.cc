// batch_matrix: in-RAM all-pairs analytics. Repeated DistanceMatrix calls
// over m=128 quantized-Mallows lists on n=2000 elements, cycling
// Kprof -> Fprof -> KHaus -> FHaus. Bucket counts run log-uniformly from 4
// (few-valued attributes: the flat joint-histogram kernel path) to 640
// (pairs whose bucket-count product passes 32n take the sort+Fenwick
// fallback). Time goes to core/prepared, the core/batch_engine tiler and
// util/thread_pool; store, access, db and the incremental engines are never
// touched, so a store change should leave this workload flat.

#include <array>
#include <vector>

#include "core/batch_engine.h"
#include "core/metric_registry.h"
#include "harness.h"
#include "inputs.h"
#include "util/checked_math.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rankties::perfbench {
namespace {

constexpr std::size_t kLists = 128;
constexpr std::size_t kDomain = 2000;
constexpr std::size_t kMinBuckets = 4;
constexpr std::size_t kMaxBuckets = 640;
// Pairs per kind checked against legacy ComputeMetric.
constexpr int kLegacySamples = 64;

constexpr std::array<MetricKind, 4> kCycle = {
    MetricKind::kKprof, MetricKind::kFprof, MetricKind::kKHaus,
    MetricKind::kFHaus};

using Matrix = std::vector<std::vector<double>>;

// Span names must be literals, hence one case per kind.
Matrix TracedDistanceMatrix(MetricKind kind,
                            const std::vector<BucketOrder>& lists) {
  switch (kind) {
    case MetricKind::kKprof: {
      obs::TraceSpan span("batch.matrix.kprof");
      return DistanceMatrix(kind, lists);
    }
    case MetricKind::kFprof: {
      obs::TraceSpan span("batch.matrix.fprof");
      return DistanceMatrix(kind, lists);
    }
    case MetricKind::kKHaus: {
      obs::TraceSpan span("batch.matrix.khaus");
      return DistanceMatrix(kind, lists);
    }
    case MetricKind::kFHaus: {
      obs::TraceSpan span("batch.matrix.fhaus");
      return DistanceMatrix(kind, lists);
    }
  }
  return {};
}

class BatchMatrix final : public Workload {
 public:
  explicit BatchMatrix(const Options& options) : seed_(options.seed) {
    Rng rng(SeedFor(seed_, 1));
    raw_ = MallowsLists(kLists, kDomain, kMinBuckets, kMaxBuckets, rng);
  }

  Status SetUp() override {
    StatusOr<std::vector<BucketOrder>> lists = Ingest(raw_);
    if (!lists.ok()) return lists.status();
    lists_ = std::move(*lists);
    return Status::Ok();
  }

  void Prepare(Tally& tally) override {
    // The engine guarantees bit-identical results for every lane count, so
    // a 1-lane build is the reference for every timed matrix.
    ThreadPool::SetGlobalThreads(1);
    for (std::size_t k = 0; k < kCycle.size(); ++k) {
      reference_[k] = DistanceMatrix(kCycle[k], lists_);
    }
    ThreadPool::SetGlobalThreads(0);

    Rng rng(SeedFor(seed_, 2));
    for (std::size_t k = 0; k < kCycle.size(); ++k) {
      for (int s = 0; s < kLegacySamples; ++s) {
        const auto i = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(kLists) - 1));
        const auto j = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(kLists) - 1));
        tally.Check(ComputeMetric(kCycle[k], lists_[i], lists_[j]) ==
                        reference_[k][i][j],
                    "batch_matrix: reference differs from ComputeMetric");
      }
    }
    RunCycle(tally);  // warm-up: the first calls run several times slower
  }

  void Run(double seconds, Tally& tally) override {
    ops_ = 0;
    op_seconds_ = 0.0;
    cycle_rate_.clear();
    while (op_seconds_ < seconds) {
      const double before = op_seconds_;
      RunCycle(tally);
      cycle_rate_.push_back(static_cast<double>(kCycle.size()) /
                            (op_seconds_ - before));
    }
  }

  void FinalCheck(Tally&) override {}

  void EndToEnd(Metrics& out) const override {
    const double pairs =
        static_cast<double>(CheckedChoose2(CheckedInt64(kLists)));
    const double rate = Percentile(cycle_rate_, 0.5);
    const auto cycles = static_cast<std::int64_t>(cycle_rate_.size());
    out.Add("requests_per_s", rate, "req/s", cycles);
    out.Add("matrix_pairs_per_s", rate * pairs, "pairs/s", cycles);
  }

  void Layers(const std::vector<obs::SpanRecord>& spans,
              Metrics& out) const override {
    const SpanStats kprof = StatsOf(spans, "batch.matrix.kprof");
    const SpanStats fprof = StatsOf(spans, "batch.matrix.fprof");
    const SpanStats khaus = StatsOf(spans, "batch.matrix.khaus");
    const SpanStats fhaus = StatsOf(spans, "batch.matrix.fhaus");
    out.Add("batch.matrix_ms.kprof", kprof.MeanUs() * 1e-3, "ms", kprof.count);
    out.Add("batch.matrix_ms.fprof", fprof.MeanUs() * 1e-3, "ms", fprof.count);
    out.Add("batch.matrix_ms.khaus", khaus.MeanUs() * 1e-3, "ms", khaus.count);
    out.Add("batch.matrix_ms.fhaus", fhaus.MeanUs() * 1e-3, "ms", fhaus.count);
    const double matrix_ns =
        (kprof.total_us + fprof.total_us + khaus.total_us + fhaus.total_us) *
        1e3;
    const obs::HistogramSnapshot prepare =
        obs::GetHistogram("batch.prepare_ns")->Snapshot();
    out.Add("batch.prepare_share",
            static_cast<double>(prepare.sum) / matrix_ns, "ratio",
            prepare.count);
    out.Add("batch.tiles_per_matrix",
            static_cast<double>(obs::GetCounter("batch.tiles")->Value()) /
                static_cast<double>(ops_),
            "count", ops_);
  }

  std::int64_t phase_ops() const override { return ops_; }
  double phase_seconds() const override { return op_seconds_; }

 private:
  void RunCycle(Tally& tally) {
    for (std::size_t k = 0; k < kCycle.size(); ++k) {
      const std::int64_t start = MonotonicNanos();
      const Matrix matrix = TracedDistanceMatrix(kCycle[k], lists_);
      const double us = MicrosBetween(start, MonotonicNanos());
      tally.Op(matrix == reference_[k],
               "batch_matrix: DistanceMatrix differs from the 1-lane "
               "reference",
               true);
      ++ops_;
      op_seconds_ += us * 1e-6;
    }
  }

  std::uint64_t seed_;
  std::vector<RawList> raw_;
  std::vector<BucketOrder> lists_;
  std::array<Matrix, kCycle.size()> reference_;
  std::int64_t ops_ = 0;
  double op_seconds_ = 0.0;
  std::vector<double> cycle_rate_;  // matrices per second of each cycle
};

}  // namespace

std::unique_ptr<Workload> MakeBatchMatrix(const Options& options) {
  return std::make_unique<BatchMatrix>(options);
}

}  // namespace rankties::perfbench
