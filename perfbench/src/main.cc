// The repo benchmark binary. Usage:
//
//   perfbench --workload <batch_matrix|outofcore_scan|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints one human-readable line per metric and, as the last line, a JSON
// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and narrows that object to the metrics BENCHMARK.json
// lists. Exit code 0 only when every op and output check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <batch_matrix|outofcore_scan|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using rankties::perfbench::Options;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 != 1 || !(options.seconds > 0.0)) return Usage();

  std::unique_ptr<rankties::perfbench::Workload> workload;
  if (options.workload == "batch_matrix") {
    workload = rankties::perfbench::MakeBatchMatrix(options);
  } else if (options.workload == "outofcore_scan") {
    workload = rankties::perfbench::MakeOutOfCoreScan(options);
  } else if (options.workload == "serve_mixed") {
    workload = rankties::perfbench::MakeServeMixed(options);
  } else {
    return Usage();
  }
  return rankties::perfbench::RunWorkload(*workload, options);
}
