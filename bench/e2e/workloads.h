#ifndef ADARTS_BENCH_E2E_WORKLOADS_H_
#define ADARTS_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "report.h"

namespace adarts::e2e {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase of the run.
  double seconds = 15.0;
  /// Run the workload, then replay its inputs through each layer's public
  /// calls inside benchmark spans and report the per-layer metrics.
  bool trace = false;
  /// Every workload shrunk to seconds (the ctest smoke run).
  bool quick = false;
  /// Scratch directory for snapshots, daemon logs and port files.
  std::string workdir;
  std::string serve_binary;
  std::string trace_stats_binary;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_file;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Untraced, the result carries every end-to-end metric;
/// traced, every per-layer metric. Any failed correctness check or failed
/// operation returns an error.
Result<RunResult> RunWorkload(const Config& config);

}  // namespace adarts::e2e

#endif  // ADARTS_BENCH_E2E_WORKLOADS_H_
