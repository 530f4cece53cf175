// serve_mixed: an assumed request mix for a ranking service, run in-process
// as a closed loop with one client; writes interleave with reads. No
// service records request traffic yet, so the mix, the Zipf skew and the
// loop shape below are assumptions, not measured traffic. The live corpus is
// m=64 quantized-Mallows lists on n=2000 elements (20-120 buckets) held in
// an IncrementalDistanceMatrix for Kprof (count-delta path), one for Fprof
// (row-refresh path) and an OnlineMedianAggregator, next to an
// IndexedCatalog over a 10k-row restaurant table. Target lists are
// Zipf-skewed (s=1.1). The seeded mix, exact in every block of 10 requests
// (their order within the block is shuffled):
//   50% pair    freeze one of 256 client rankings (PreparedRanking) and run
//               one prepared kernel against a live list, kind cycling;
//   20% topk    OnlineMedianAggregator::CurrentTopK(10);
//   10% catalog IndexedCatalog::TopKMedrank over 4 rotating templates, k=10;
//   20% write   one MoveToBucket / MoveToNewBucket (a new bucket asked for
//               half the time) on both matrices, then UpdateVoter with the
//               thawed list.
// This exercises the incremental engines, the per-request freeze and
// kernel, access (MEDRANK under the catalog) and db; it bypasses store and
// the batch tiler.

#include <array>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_engine.h"
#include "core/median_rank.h"
#include "core/metric_registry.h"
#include "core/online_median.h"
#include "core/prepared.h"
#include "db/indexed_catalog.h"
#include "db/query.h"
#include "db/query_parser.h"
#include "gen/datasets.h"
#include "gen/zipf.h"
#include "harness.h"
#include "inputs.h"
#include "util/stopwatch.h"

namespace rankties::perfbench {
namespace {

constexpr std::size_t kLists = 64;
constexpr std::size_t kDomain = 2000;
constexpr std::size_t kMinBuckets = 20;
constexpr std::size_t kMaxBuckets = 120;
constexpr std::size_t kClients = 256;
constexpr std::size_t kTableRows = 10000;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kWarmupRequests = 2000;
// Every block of kMixBlock requests holds exactly this many of each class,
// indexed by Class: 50% pair, 20% topk, 10% catalog, 20% write.
constexpr std::size_t kMixBlock = 10;
constexpr std::array<std::size_t, 4> kMixCounts = {5, 2, 1, 2};
// requests_per_s is the median throughput of windows of this many requests,
// a whole number of mix blocks, so every window serves the same mix.
constexpr std::int64_t kRateWindow = 500;
// Requests in the pre-generated script, a whole number of windows; a run
// cycles through it.
constexpr std::size_t kScriptLength = 262 * kRateWindow;
// Live state is snapshotted every kSnapshotEvery requests for the first
// kSnapshots blocks of a phase and checked after the phase; the final check
// covers the state the whole run left. Every phase, traced or not, thus
// runs its requests back to back and holds the same memory for checks.
constexpr std::int64_t kSnapshotEvery = 4096;
constexpr std::int64_t kSnapshots = 4;
// One pair answer in kPairSampleEvery is checked against ComputeMetric.
constexpr std::size_t kPairSampleEvery = 16;
// A list may grow at most this many buckets past its initial count, which
// keeps the tie structure steady over a run of any length.
constexpr std::size_t kBucketSlack = 8;

constexpr std::array<MetricKind, 4> kPairKinds = {
    MetricKind::kKprof, MetricKind::kFprof, MetricKind::kKHaus,
    MetricKind::kFHaus};

const char* const kCatalogTemplates[] = {
    "distance_miles:asc~1 price_tier:asc stars:desc",
    "cuisine:thai>italian distance_miles:asc~2 stars:desc",
    "stars:desc~0.5 price_tier:asc distance_miles:asc",
    "cuisine:japanese>chinese>indian price_tier:asc stars:desc "
    "distance_miles:asc~5",
};

enum class Class : std::uint8_t { kPair, kTopK, kCatalog, kWrite };

struct Request {
  Class type = Class::kPair;
  bool sampled = false;       // pair: check the answer
  bool new_bucket = false;    // write: prefer MoveToNewBucket
  std::uint8_t variant = 0;   // pair: metric kind; catalog: template
  std::uint32_t list = 0;     // pair / write target
  std::uint32_t client = 0;   // pair
  ElementId element = 0;      // write
  double where = 0.0;         // write: target position in [0, 1)
};

double TracedKernel(MetricKind kind, const PreparedRanking& sigma,
                    const PreparedRanking& tau, PairScratch& scratch) {
  switch (kind) {
    case MetricKind::kKprof: {
      obs::TraceSpan span("prepared.kernel.kprof");
      return Kprof(sigma, tau, scratch);
    }
    case MetricKind::kFprof: {
      obs::TraceSpan span("prepared.kernel.fprof");
      return Fprof(sigma, tau);
    }
    case MetricKind::kKHaus: {
      obs::TraceSpan span("prepared.kernel.khaus");
      return static_cast<double>(KHausdorff(sigma, tau, scratch));
    }
    case MetricKind::kFHaus: {
      obs::TraceSpan span("prepared.kernel.fhaus");
      return FHausdorff(sigma, tau, scratch);
    }
  }
  return 0.0;
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Options& options) {
    Rng rng(SeedFor(options.seed, 21));
    raw_ = MallowsLists(kLists, kDomain, kMinBuckets, kMaxBuckets, rng);
    const std::vector<RawList> clients =
        MallowsLists(kClients, kDomain, kMinBuckets, kMaxBuckets, rng);
    StatusOr<std::vector<BucketOrder>> ingested = Ingest(clients);
    if (!ingested.ok()) std::abort();  // generated lists are valid
    clients_ = std::move(*ingested);
    table_ = MakeRestaurantTable(kTableRows, rng);
    for (const char* text : kCatalogTemplates) {
      StatusOr<std::vector<AttributePreference>> prefs =
          ParsePreferences(table_.schema(), text);
      if (!prefs.ok()) std::abort();  // fixed, valid templates
      templates_.push_back(std::move(*prefs));
    }
    script_ = MakeScript(rng);
  }

  Status SetUp() override {
    StatusOr<std::vector<BucketOrder>> lists = Ingest(raw_);
    if (!lists.ok()) return lists.status();
    StatusOr<IncrementalDistanceMatrix> kprof =
        IncrementalDistanceMatrix::Create(MetricKind::kKprof, *lists);
    if (!kprof.ok()) return kprof.status();
    StatusOr<IncrementalDistanceMatrix> fprof =
        IncrementalDistanceMatrix::Create(MetricKind::kFprof, *lists);
    if (!fprof.ok()) return fprof.status();
    OnlineMedianAggregator median(kDomain);
    for (const BucketOrder& list : *lists) {
      Status status = median.AddVoter(list);
      if (!status.ok()) return status;
    }
    StatusOr<IndexedCatalog> catalog = IndexedCatalog::Build(table_);
    if (!catalog.ok()) return catalog.status();

    kprof_.emplace(std::move(*kprof));
    fprof_.emplace(std::move(*fprof));
    median_.emplace(std::move(median));
    catalog_.emplace(std::move(*catalog));
    current_ = std::move(*lists);
    initial_buckets_.clear();
    for (const BucketOrder& list : current_) {
      initial_buckets_.push_back(list.num_buckets());
    }
    cursor_ = 0;
    return Status::Ok();
  }

  void Prepare(Tally& tally) override {
    // The table never changes, so every catalog answer is checked against
    // one PreferenceQuery::TopKMedrank per template.
    expected_top_rows_.clear();
    for (const std::vector<AttributePreference>& prefs : templates_) {
      PreferenceQuery query(table_);
      for (const AttributePreference& pref : prefs) query.Add(pref);
      StatusOr<QueryResult> expected = query.TopKMedrank(kTopK);
      tally.Check(expected.ok(), "serve_mixed: PreferenceQuery::TopKMedrank");
      expected_top_rows_.push_back(
          expected.ok() ? expected->top_rows : std::vector<ElementId>{});
    }
    for (std::size_t i = 0; i < kWarmupRequests; ++i) Serve(tally, nullptr);
  }

  void Run(double seconds, Tally& tally) override {
    phase_ = Phase{};
    const std::int64_t reevaluated_before =
        kprof_->pairs_reevaluated() + fprof_->pairs_reevaluated();
    while (phase_.seconds < seconds) Serve(tally, &phase_);
    phase_.pairs_reevaluated = kprof_->pairs_reevaluated() +
                               fprof_->pairs_reevaluated() -
                               reevaluated_before;
  }

  void CheckPhase(Tally& tally) override {
    for (const Snapshot& snapshot : snapshots_) CheckSnapshot(snapshot, tally);
    snapshots_.clear();
  }

  void FinalCheck(Tally& tally) override {
    CheckSnapshot(TakeSnapshot(), tally);
  }

  void EndToEnd(Metrics& out) const override {
    out.Add("requests_per_s", Percentile(phase_.window_rate, 0.5), "req/s",
            static_cast<std::int64_t>(phase_.window_rate.size()));
    out.AddPercentiles("pair", phase_.latency[0]);
    out.AddPercentiles("topk", phase_.latency[1]);
    out.AddPercentiles("catalog", phase_.latency[2]);
    out.AddPercentiles("write", phase_.latency[3]);
  }

  void Layers(const std::vector<obs::SpanRecord>& spans,
              Metrics& out) const override {
    auto span_us = [&](const char* metric, const char* span) {
      const SpanStats stats = StatsOf(spans, span);
      out.Add(metric, stats.MeanUs(), "us", stats.count);
    };
    span_us("prepared.freeze_us", "prepared.freeze");
    span_us("prepared.kernel_us.kprof", "prepared.kernel.kprof");
    span_us("prepared.kernel_us.fprof", "prepared.kernel.fprof");
    span_us("prepared.kernel_us.khaus", "prepared.kernel.khaus");
    span_us("prepared.kernel_us.fhaus", "prepared.kernel.fhaus");
    span_us("prepared.thaw_us", "prepared.thaw");
    span_us("incremental.move_us.kprof", "incremental.move.kprof");
    span_us("incremental.move_us.fprof", "incremental.move.fprof");
    span_us("online_median.update_us", "online_median.update");

    const auto writes =
        static_cast<std::int64_t>(phase_.latency[3].size());
    const double per_write = writes == 0 ? 0.0 : 1.0 / writes;
    out.Add("incremental.pairs_reevaluated_per_write",
            static_cast<double>(phase_.pairs_reevaluated) * per_write,
            "count", writes);
    out.Add("online_median.elements_touched_per_write",
            static_cast<double>(
                obs::GetCounter("online_median.elements_touched")->Value()) *
                per_write,
            "count", writes);
    const auto queries =
        static_cast<std::int64_t>(phase_.latency[2].size());
    out.Add("access.sorted_accesses_per_query",
            queries == 0 ? 0.0
                         : static_cast<double>(phase_.sorted_accesses) /
                               static_cast<double>(queries),
            "count", queries);
    const obs::HistogramSnapshot depth =
        obs::GetHistogram("access.medrank.depth")->Snapshot();
    out.Add("access.medrank_depth_mean", depth.Mean(), "count", depth.count);
  }

  std::int64_t phase_ops() const override { return phase_.ops; }
  double phase_seconds() const override { return phase_.seconds; }

 private:
  struct Phase {
    std::int64_t ops = 0;
    double seconds = 0.0;
    std::array<std::vector<double>, 4> latency;  // indexed by Class
    std::int64_t pairs_reevaluated = 0;
    std::int64_t sorted_accesses = 0;
    std::vector<double> window_rate;  // requests/s of each kRateWindow window
    double window_seconds = 0.0;
  };
  struct Snapshot {
    std::vector<BucketOrder> lists;
    std::vector<std::vector<double>> kprof;
    std::vector<std::vector<double>> fprof;
    StatusOr<std::vector<std::int64_t>> scores{Status::Internal("unset")};
  };

  std::vector<Request> MakeScript(Rng& rng) const {
    const ZipfSampler zipf(kLists, 1.1);
    // Popularity rank -> list, so the hot lists are a seeded choice.
    const Permutation hot = Permutation::Random(kLists, rng);
    std::array<Class, kMixBlock> block{};
    for (std::size_t c = 0, at = 0; c < kMixCounts.size(); ++c) {
      for (std::size_t i = 0; i < kMixCounts[c]; ++i) {
        block[at++] = static_cast<Class>(c);
      }
    }
    std::vector<Request> script(kScriptLength);
    std::size_t pairs = 0;
    std::size_t catalogs = 0;
    for (std::size_t r = 0; r < script.size(); ++r) {
      if (r % kMixBlock == 0) {
        for (std::size_t i = kMixBlock - 1; i > 0; --i) {
          std::swap(block[i], block[static_cast<std::size_t>(rng.UniformInt(
                                  0, static_cast<std::int64_t>(i)))]);
        }
      }
      Request& request = script[r];
      request.type = block[r % kMixBlock];
      request.list = static_cast<std::uint32_t>(
          hot.At(static_cast<ElementId>(zipf.Sample(rng))));
      if (request.type == Class::kPair) {
        request.variant = static_cast<std::uint8_t>(pairs % 4);
        request.sampled = pairs % kPairSampleEvery == 0;
        request.client = static_cast<std::uint32_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(kClients) - 1));
        ++pairs;
      } else if (request.type == Class::kCatalog) {
        request.variant = static_cast<std::uint8_t>(
            catalogs % std::size(kCatalogTemplates));
        ++catalogs;
      } else if (request.type == Class::kWrite) {
        request.element = static_cast<ElementId>(
            rng.UniformInt(0, static_cast<std::int64_t>(kDomain) - 1));
        request.where = rng.UniformReal();
        request.new_bucket = rng.Bernoulli(0.5);
      }
    }
    return script;
  }

  /// Serves the next scripted request; `phase` (when set) records it.
  /// Answers are checked after the clock stops.
  void Serve(Tally& tally, Phase* phase) {
    const Request& request = script_[cursor_];
    cursor_ = (cursor_ + 1) % script_.size();
    double value = 0.0;
    StatusOr<QueryResult> result(Status::Internal("unset"));
    const std::int64_t start = MonotonicNanos();
    bool ok = false;
    switch (request.type) {
      case Class::kPair:
        value = ServePair(request);
        ok = true;
        break;
      case Class::kTopK:
        ok = ServeTopK();
        break;
      case Class::kCatalog:
        result = ServeCatalog(request);
        ok = result.ok();
        break;
      case Class::kWrite:
        ok = ServeWrite(request);
        break;
    }
    const double us = MicrosBetween(start, MonotonicNanos());
    bool checked = false;
    if (ok && request.type == Class::kPair && request.sampled) {
      checked = true;
      ok = ComputeMetric(kPairKinds[request.variant], clients_[request.client],
                         current_[request.list]) == value;
    } else if (ok && request.type == Class::kCatalog) {
      checked = true;
      ok = result->top_rows == expected_top_rows_[request.variant];
    }
    tally.Op(ok,
             "serve_mixed: request failed, or its answer differs from "
             "ComputeMetric / PreferenceQuery::TopKMedrank",
             checked);
    if (phase != nullptr) {
      phase->latency[static_cast<std::size_t>(request.type)].push_back(us);
      ++phase->ops;
      phase->seconds += us * 1e-6;
      phase->window_seconds += us * 1e-6;
      if (phase->ops % kRateWindow == 0) {
        phase->window_rate.push_back(static_cast<double>(kRateWindow) /
                                     phase->window_seconds);
        phase->window_seconds = 0.0;
      }
      if (result.ok()) phase->sorted_accesses += result->sorted_accesses;
      if (phase->ops % kSnapshotEvery == 0 &&
          phase->ops <= kSnapshots * kSnapshotEvery) {
        snapshots_.push_back(TakeSnapshot());
      }
    }
  }

  double ServePair(const Request& request) {
    obs::TraceSpan span("request.pair");
    PreparedRanking client;
    {
      obs::TraceSpan freeze("prepared.freeze");
      client = PreparedRanking(clients_[request.client]);
    }
    return TracedKernel(kPairKinds[request.variant], client,
                        kprof_->List(request.list), scratch_);
  }

  bool ServeTopK() {
    obs::TraceSpan span("request.topk");
    obs::TraceSpan topk("online_median.topk");
    return median_->CurrentTopK(kTopK).ok();
  }

  StatusOr<QueryResult> ServeCatalog(const Request& request) {
    obs::TraceSpan span("request.catalog");
    obs::TraceSpan query("db.catalog_topk");
    return catalog_->TopKMedrank(templates_[request.variant], kTopK);
  }

  bool ServeWrite(const Request& request) {
    obs::TraceSpan span("request.write");
    const std::size_t list = request.list;
    const PreparedRanking& live = kprof_->List(list);
    const std::size_t buckets = live.num_buckets();
    const ElementId e = request.element;
    Status kprof_status;
    Status fprof_status;
    if (request.new_bucket &&
        buckets < initial_buckets_[list] + kBucketSlack) {
      const auto before = static_cast<std::size_t>(
          request.where * static_cast<double>(buckets + 1));
      {
        obs::TraceSpan move("incremental.move.kprof");
        kprof_status = kprof_->MoveToNewBucket(list, e, before);
      }
      obs::TraceSpan move("incremental.move.fprof");
      fprof_status = fprof_->MoveToNewBucket(list, e, before);
    } else {
      auto target = static_cast<std::size_t>(
          request.where * static_cast<double>(buckets));
      const auto source = static_cast<std::size_t>(
          live.bucket_of()[static_cast<std::size_t>(e)]);
      if (target == source) target = (target + 1) % buckets;
      {
        obs::TraceSpan move("incremental.move.kprof");
        kprof_status = kprof_->MoveToBucket(list, e, target);
      }
      obs::TraceSpan move("incremental.move.fprof");
      fprof_status = fprof_->MoveToBucket(list, e, target);
    }
    if (!kprof_status.ok() || !fprof_status.ok()) return false;
    BucketOrder thawed;
    {
      obs::TraceSpan thaw("prepared.thaw");
      thawed = kprof_->List(list).ToBucketOrder();
    }
    {
      obs::TraceSpan update("online_median.update");
      if (!median_->UpdateVoter(list, thawed).ok()) return false;
    }
    current_[list] = std::move(thawed);
    return true;
  }

  Snapshot TakeSnapshot() const {
    Snapshot snapshot;
    snapshot.lists = current_;
    snapshot.kprof = kprof_->Matrix();
    snapshot.fprof = fprof_->Matrix();
    snapshot.scores = median_->ScoresQuad();
    return snapshot;
  }

  void CheckSnapshot(const Snapshot& snapshot, Tally& tally) const {
    tally.Check(DistanceMatrix(MetricKind::kKprof, snapshot.lists) ==
                    snapshot.kprof,
                "serve_mixed: live Kprof matrix differs from DistanceMatrix");
    tally.Check(DistanceMatrix(MetricKind::kFprof, snapshot.lists) ==
                    snapshot.fprof,
                "serve_mixed: live Fprof matrix differs from DistanceMatrix");
    StatusOr<std::vector<std::int64_t>> expected =
        MedianRankScoresQuad(snapshot.lists, MedianPolicy::kLower);
    tally.Check(expected.ok() && snapshot.scores.ok() &&
                    *expected == *snapshot.scores,
                "serve_mixed: ScoresQuad differs from MedianRankScoresQuad");
  }

  std::vector<RawList> raw_;
  std::vector<BucketOrder> clients_;
  Table table_;
  std::vector<std::vector<AttributePreference>> templates_;
  std::vector<Request> script_;

  std::optional<IncrementalDistanceMatrix> kprof_;
  std::optional<IncrementalDistanceMatrix> fprof_;
  std::optional<OnlineMedianAggregator> median_;
  std::optional<IndexedCatalog> catalog_;
  std::vector<BucketOrder> current_;  // thawed twin of the live lists
  std::vector<std::size_t> initial_buckets_;
  PairScratch scratch_;
  std::size_t cursor_ = 0;

  Phase phase_;
  std::vector<std::vector<ElementId>> expected_top_rows_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(const Options& options) {
  return std::make_unique<ServeMixed>(options);
}

}  // namespace rankties::perfbench
