#include "harness.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <unordered_map>

#include "util/simd.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace rankties::perfbench {
namespace {

// Set-up is timed in two windows: before the first op, and again after the
// final check (a shared host can run slow for tens of seconds at a time, so
// two windows a run apart sample it better than one longer window). In each
// window set-up repeats until it has run at least kSetUpMinReps times and
// for at least kSetUpWindowSeconds (at most kSetUpMaxReps times); setup_s is
// the median over both windows.
constexpr std::size_t kSetUpMinReps = 8;
constexpr std::size_t kSetUpMaxReps = 500;
constexpr double kSetUpWindowSeconds = 0.75;

// Layers whose self time the traced run reports, keyed by the first segment
// of a span name. `request` is the benchmark's own per-request span.
constexpr const char* kLayers[] = {
    "request", "prepared", "batch", "threadpool", "incremental",
    "online_median", "outofcore", "store", "access", "db"};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintEnvironment(const Options& options) {
#ifdef NDEBUG
  const int ndebug = 1;
#else
  const int ndebug = 0;
#endif
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d "
      "build_type=%s compiler=\"%s\" ndebug=%d nproc=%u pool_lanes=%zu "
      "simd=%s\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, ndebug, std::thread::hardware_concurrency(),
      ThreadPool::GlobalThreads(), simd::LevelName(simd::ActiveLevel()));
}

std::string FormatNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Self time per layer, in ns: each span's duration minus its direct
/// children's (children run on the parent's thread, so they are disjoint
/// sub-intervals of it).
std::map<std::string, double> SelfNanosByLayer(
    const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.duration_ns;
  }
  std::map<std::string, double> self;
  for (const obs::SpanRecord& span : spans) {
    const std::string name(span.name);
    const std::string layer = name.substr(0, name.find('.'));
    const auto children = child_ns.find(span.id);
    const std::int64_t covered =
        children == child_ns.end() ? 0 : children->second;
    self[layer] += static_cast<double>(span.duration_ns - covered);
  }
  return self;
}

/// Wakes every pool worker once, so time a worker spent waiting is booked
/// into threadpool.worker_idle_ns before the counter is read. Each of the
/// `lanes` chunks waits for all the others, so every worker has to run one.
void KickPool() {
  const std::size_t lanes = ThreadPool::GlobalThreads();
  std::atomic<std::size_t> arrived{0};
  ParallelFor(0, lanes, 1, [&](std::size_t, std::size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < lanes) std::this_thread::yield();
  });
}

/// Runs one window of timed set-ups, appending each one's seconds.
void TimeSetUps(Workload& workload, Tally& tally,
                std::vector<double>& seconds) {
  double total = 0.0;
  for (std::size_t rep = 0;
       rep < kSetUpMaxReps &&
       (rep < kSetUpMinReps || total < kSetUpWindowSeconds);
       ++rep) {
    const std::int64_t start = MonotonicNanos();
    const Status status = workload.SetUp();
    seconds.push_back(MicrosBetween(start, MonotonicNanos()) * 1e-6);
    total += seconds.back();
    if (!tally.Op(status, "set-up")) return;
  }
}

/// Layer metrics every workload has: pool utilisation and prepared-scratch
/// growth, from the obs counters of the traced phase.
void AddPoolMetrics(std::int64_t ops, double wall_ns, Metrics& out) {
  const double helpers =
      static_cast<double>(ThreadPool::GlobalThreads()) - 1.0;
  const double idle_ns = static_cast<double>(
      obs::GetCounter("threadpool.worker_idle_ns")->Value());
  out.Add("threadpool.busy_ratio",
          helpers > 0 ? 1.0 - idle_ns / (helpers * wall_ns) : 1.0, "ratio");
  out.Add("threadpool.parallel_for_per_op",
          static_cast<double>(
              obs::GetCounter("threadpool.parallel_for_calls")->Value()) /
              static_cast<double>(ops),
          "count", ops);
  out.Add("prepared.scratch_grows",
          static_cast<double>(
              obs::GetCounter("prepared.scratch_grows")->Value()),
          "count");
}

void AddTraceMetrics(const std::vector<obs::SpanRecord>& spans,
                     std::int64_t ops, double overhead, Metrics& out) {
  const std::map<std::string, double> self = SelfNanosByLayer(spans);
  const double per_op = ops > 0 ? 1e-3 / static_cast<double>(ops) : 0.0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    out.Add(std::string("self_us_per_op.") + layer,
            it == self.end() ? 0.0 : it->second * per_op, "us", ops);
  }
  out.Add("trace.spans", static_cast<double>(spans.size()), "count");
  out.Add("trace.dropped_spans",
          static_cast<double>(obs::TraceRecorder::Global().dropped()),
          "count");
  out.Add("trace.overhead_ratio", overhead, "ratio");
}

}  // namespace

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit, std::int64_t samples) {
  entries_.push_back({name, value, unit, samples});
}

void Metrics::AddPercentiles(const std::string& prefix,
                             const std::vector<double>& samples) {
  const auto count = static_cast<std::int64_t>(samples.size());
  Add(prefix + "_p50_us", Percentile(samples, 0.50), "us", count);
  Add(prefix + "_p99_us", Percentile(samples, 0.99), "us", count);
}

void Metrics::Print() const {
  for (const Entry& e : entries_) {
    if (e.samples >= 0) {
      std::printf("%-44s %16.6g %-8s samples=%lld\n", e.name.c_str(), e.value,
                  e.unit.c_str(), static_cast<long long>(e.samples));
    } else {
      std::printf("%-44s %16.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + FormatNumber(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

bool Tally::Check(bool ok, const char* what) {
  ++checks;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what);
  }
  return ok;
}

bool Tally::Op(bool ok, const char* what, bool checked) {
  ++attempted;
  if (checked) ++checks;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: op failed: %s\n", what);
  }
  return ok;
}

bool Tally::Op(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
  }
  return Op(status.ok(), what);
}

SpanStats StatsOf(const std::vector<obs::SpanRecord>& spans,
                  const char* name) {
  SpanStats stats;
  const std::string wanted(name);
  for (const obs::SpanRecord& span : spans) {
    if (wanted == span.name) {
      ++stats.count;
      stats.total_us += static_cast<double>(span.duration_ns) * 1e-3;
    }
  }
  return stats;
}

int RunWorkload(Workload& workload, const Options& options) {
  obs::SetEnabled(false);
  PrintEnvironment(options);
  Tally tally;

  std::vector<double> setup_seconds;
  TimeSetUps(workload, tally, setup_seconds);
  if (tally.failed == 0) workload.Prepare(tally);

  Metrics metrics;
  if (tally.failed == 0 && !options.trace) {
    workload.Run(options.seconds, tally);
    workload.CheckPhase(tally);
    workload.FinalCheck(tally);
    if (tally.failed == 0) TimeSetUps(workload, tally, setup_seconds);
    metrics.Add("setup_s", Percentile(setup_seconds, 0.5), "s",
                static_cast<std::int64_t>(setup_seconds.size()));
    metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
    workload.EndToEnd(metrics);
  } else if (tally.failed == 0) {
    // Phase A, untraced: the reference for the tracing overhead and the
    // source of the workload's named end-to-end metrics in this run.
    workload.Run(options.seconds / 2, tally);
    workload.CheckPhase(tally);
    workload.EndToEnd(metrics);
    const double untraced_op_s =
        workload.phase_seconds() / static_cast<double>(workload.phase_ops());

    // Phase B, traced: obs counters and span recording on.
    obs::SetEnabled(true);
    KickPool();
    obs::Registry::Global().ResetAll();
    obs::TraceRecorder::Global().Start();
    const std::int64_t start = MonotonicNanos();
    workload.Run(options.seconds / 2, tally);
    KickPool();
    const double wall_ns = static_cast<double>(MonotonicNanos() - start);
    obs::TraceRecorder::Global().Stop();
    obs::SetEnabled(false);
    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::Global().Snapshot();
    const double traced_op_s =
        workload.phase_seconds() / static_cast<double>(workload.phase_ops());

    workload.CheckPhase(tally);
    workload.Layers(spans, metrics);
    AddPoolMetrics(workload.phase_ops(), wall_ns, metrics);
    AddTraceMetrics(spans, workload.phase_ops(),
                    traced_op_s / untraced_op_s - 1.0, metrics);
    const std::string path =
        options.work_dir + "/" + options.workload + ".perfetto.json";
    if (obs::WritePerfettoJson(path)) {
      std::printf("# trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    workload.FinalCheck(tally);
  }

  metrics.Add("error_rate",
              tally.attempted == 0 ? 1.0
                                   : static_cast<double>(tally.failed) /
                                         static_cast<double>(tally.attempted),
              "ratio", tally.attempted);
  std::printf("# ops attempted=%lld failed=%lld checks_run=%lld\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              static_cast<long long>(tally.checks));
  metrics.Print();
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace rankties::perfbench
