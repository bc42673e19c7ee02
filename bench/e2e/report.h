#ifndef ADARTS_BENCH_E2E_REPORT_H_
#define ADARTS_BENCH_E2E_REPORT_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace adarts::e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the operation counts and
/// the metrics, in the order they are printed.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The run's machine-readable last line:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
std::string ResultJson(const RunResult& result);

/// Parses a line written by `ResultJson`.
Result<RunResult> ParseResultJson(const std::string& line);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method). Needs at
/// least two values.
std::array<double, 3> Quartiles(std::vector<double> values);

/// Metric names, units and bounds declared in BENCHMARK.json.
struct BenchmarkSpec {
  struct Entry {
    std::string unit;
    double bound = 0.0;  ///< end-to-end metrics only
  };
  std::map<std::string, Entry> end_to_end;
  std::map<std::string, Entry> per_layer;
};

Result<BenchmarkSpec> ReadBenchmarkSpec(const std::string& path);

/// OK when `result` carries exactly the metrics `declared` names, with the
/// declared units.
Status CheckDeclared(const RunResult& result,
                     const std::map<std::string, BenchmarkSpec::Entry>& declared);

}  // namespace adarts::e2e

#endif  // ADARTS_BENCH_E2E_REPORT_H_
