#ifndef RANKTIES_PERFBENCH_SRC_HARNESS_H_
#define RANKTIES_PERFBENCH_SRC_HARNESS_H_

// Shared machinery of the repo benchmark: run options, latency samples, the
// metric report, the pass/fail tally, and the orchestration every workload
// goes through (set-up repetitions, reference + warm-up, the untraced and
// traced phases, the final output checks).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/stats.h"
#include "util/status.h"

namespace rankties::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the corpus file and the Perfetto export.
  std::string work_dir = ".";
};

/// Metrics of one run in emission order. `samples` < 0 means the value is
/// not a percentile/mean over samples.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = -1);
  /// p50 and p99 of `samples` as `<prefix>_p50_us` / `<prefix>_p99_us`.
  void AddPercentiles(const std::string& prefix,
                      const std::vector<double>& samples);
  /// Human-readable lines, one metric each.
  void Print() const;
  /// The `{"name": {"value": v, "unit": u}, ...}` object.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::int64_t samples;
  };
  std::vector<Entry> entries_;
};

/// Operations attempted and failed, and output checks run. An op fails when
/// it returns a non-OK Status, fails the check of its output, or breaks the
/// cache budget.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t checks = 0;

  /// Records one op; `checked` says its output was checked, and `ok`
  /// includes that check. Returns `ok`.
  bool Op(bool ok, const char* what, bool checked = false);
  /// Records one op with its Status; returns status.ok().
  bool Op(const Status& status, const char* what);
  /// Records one check that belongs to no single op (a reference sample, a
  /// periodic check of the live state); a failure counts as a failed op.
  bool Check(bool ok, const char* what);
};

/// One benchmark workload. The harness drives it through
/// SetUp (timed, repeated) -> Prepare -> {Run -> CheckPhase}... ->
/// FinalCheck.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything a user pays for before the first op from the
  /// already-generated inputs; called several times, the last build stays
  /// live. The harness times each call.
  virtual Status SetUp() = 0;

  /// Reference outputs for the checks and a warm-up, both untimed.
  virtual void Prepare(Tally& tally) = 0;

  /// Runs ops until their summed latency reaches `seconds` and keeps the
  /// phase's statistics (replacing the previous phase's). Every phase runs
  /// the same way, traced or not: only spans and obs counters differ.
  virtual void Run(double seconds, Tally& tally) = 0;

  /// Output checks the last Run deferred to after its timed requests; the
  /// harness calls this with obs off.
  virtual void CheckPhase(Tally& /*tally*/) {}

  /// Checks the live state once more after the last phase.
  virtual void FinalCheck(Tally& tally) = 0;

  /// End-to-end metrics of the last phase: `requests_per_s` plus the
  /// workload's own named metrics. Throughputs are medians over fixed
  /// windows of the phase (a cycle of ops, or a block of requests), so a
  /// short stall of the host moves them less than it moves a mean.
  virtual void EndToEnd(Metrics& out) const = 0;

  /// Per-layer metrics of the last phase, which ran with obs and tracing
  /// on. `spans` is that phase's trace.
  virtual void Layers(const std::vector<obs::SpanRecord>& spans,
                      Metrics& out) const = 0;

  /// Ops run by the last phase and their summed latency.
  virtual std::int64_t phase_ops() const = 0;
  virtual double phase_seconds() const = 0;
};

std::unique_ptr<Workload> MakeBatchMatrix(const Options& options);
std::unique_ptr<Workload> MakeOutOfCoreScan(const Options& options);
std::unique_ptr<Workload> MakeServeMixed(const Options& options);

/// Runs `workload` per `options` and prints the report; returns the exit
/// code (0 only when every op and check passed).
int RunWorkload(Workload& workload, const Options& options);

/// Span statistics by name over a trace.
struct SpanStats {
  std::int64_t count = 0;
  double total_us = 0.0;
  double MeanUs() const {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
};
SpanStats StatsOf(const std::vector<obs::SpanRecord>& spans,
                  const char* name);

/// Steady-clock microseconds between two MonotonicNanos() readings.
inline double MicrosBetween(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-3;
}

}  // namespace rankties::perfbench

#endif  // RANKTIES_PERFBENCH_SRC_HARNESS_H_
