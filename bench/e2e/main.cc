// adarts_bench — the end-to-end benchmark of A-DARTS (bench/e2e/README.md).
//
//   adarts_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--workdir DIR] [--trace-file FILE] [--quick]
//                [--benchmark-json FILE]
//       One run of one workload. Prints every metric as `name value unit`,
//       then, as the last line, one JSON object:
//       {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
//       --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
//       metrics of a traced replay (and writes its Chrome trace to FILE).
//
//   adarts_bench [--seed N] [--seconds S] [--trace 0|1] [--quick] ...
//       Every workload, each in its own child process.
//
//   adarts_bench --repeat N [--workload NAME] [--seed N] ...
//       N runs per workload with seeds N, N+1, ...; prints each metric's
//       median and quartiles and flags any end-to-end metric whose
//       interquartile spread (share of the median) exceeds its bound in
//       BENCHMARK.json. --repeat-json FILE also writes the summary as JSON.
//
// Exit status: 0 when every run passed its correctness checks; 1 on a
// failed check, a failed run or a flagged spread; 2 on bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "client.h"
#include "report.h"
#include "workloads.h"

namespace adarts::e2e {
namespace {

struct Args {
  Config config;
  std::string benchmark_json = "BENCHMARK.json";
  int repeat = 0;
  std::string repeat_json;
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "adarts_bench: %s\n"
               "usage: adarts_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                    [--workdir DIR] [--trace-file FILE] "
               "[--quick]\n"
               "                    [--benchmark-json FILE] [--repeat N] "
               "[--repeat-json FILE]\n",
               why.c_str());
  return 2;
}

bool ParseUnsigned(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

/// Parses the command line; an empty string on success, else the problem.
std::string Parse(int argc, char** argv, Args* args) {
  Config& c = args->config;
  c.workdir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--quick") {
      c.quick = true;
      continue;
    }
    if (i + 1 >= argc) return "missing value for " + key;
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (key == "--workload") {
      c.workload = value;
    } else if (key == "--seed") {
      if (!ParseUnsigned(value, &c.seed)) return "bad --seed " + value;
    } else if (key == "--seconds") {
      if (!ParseUnsigned(value, &n) || n == 0 || n > 600) {
        return "bad --seconds " + value;
      }
      c.seconds = static_cast<double>(n);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return "bad --trace " + value;
      c.trace = value == "1";
    } else if (key == "--workdir") {
      c.workdir = value;
    } else if (key == "--trace-file") {
      c.trace_file = value;
    } else if (key == "--benchmark-json") {
      args->benchmark_json = value;
    } else if (key == "--repeat") {
      if (!ParseUnsigned(value, &n) || n < 2 || n > 100) {
        return "bad --repeat " + value;
      }
      args->repeat = static_cast<int>(n);
    } else if (key == "--repeat-json") {
      args->repeat_json = value;
    } else {
      return "unknown flag " + key;
    }
  }
  if (!c.workload.empty()) {
    bool known = false;
    for (const std::string& w : WorkloadNames()) known |= w == c.workload;
    if (!known) return "unknown workload " + c.workload;
  }
  if (c.quick) c.seconds = 2.0;
  return "";
}

std::string SelfPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "adarts_bench";
}

/// The command line of a child run of `workload` with `seed`.
std::vector<std::string> ChildArgs(const Args& args, const std::string& workload,
                                   std::uint64_t seed) {
  const Config& c = args.config;
  std::vector<std::string> out = {SelfPath(),
                                  "--workload",
                                  workload,
                                  "--seed",
                                  std::to_string(seed),
                                  "--seconds",
                                  std::to_string(static_cast<int>(c.seconds)),
                                  "--trace",
                                  c.trace ? "1" : "0",
                                  "--workdir",
                                  c.workdir,
                                  "--benchmark-json",
                                  args.benchmark_json};
  if (!c.trace_file.empty()) {
    out.push_back("--trace-file");
    out.push_back(c.trace_file + "." + workload);
  }
  if (c.quick) out.push_back("--quick");
  return out;
}

/// Runs one child and parses its last stdout line.
Result<RunResult> RunChild(const std::vector<std::string>& argv) {
  int code = 0;
  ADARTS_ASSIGN_OR_RETURN(std::string out, RunAndCapture(argv, &code));
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  std::string last;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) last = line;
  }
  Result<RunResult> result = ParseResultJson(last);
  if (code != 0 || !result.ok() || !result->correct) {
    return Status::Internal("run failed: exit code " + std::to_string(code));
  }
  return result;
}

std::vector<std::string> Selected(const Args& args) {
  if (args.config.workload.empty()) return WorkloadNames();
  return {args.config.workload};
}

int RunOne(const Args& args) {
  Config config = args.config;
  const std::string dir =
      config.workdir + "/run." + std::to_string(static_cast<long>(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Usage("cannot create " + dir);
  if (config.trace_file.empty()) {
    config.trace_file = config.workdir + "/trace." + config.workload + ".json";
  }
  config.workdir = dir;
  config.serve_binary = ADARTS_SERVE_BIN;
  config.trace_stats_binary = TRACE_STATS_BIN;

  Result<RunResult> result = RunWorkload(config);
  std::filesystem::remove_all(dir, ec);
  if (!result.ok()) {
    std::fprintf(stderr, "adarts_bench: %s: %s\n", config.workload.c_str(),
                 result.status().ToString().c_str());
    RunResult failed;
    failed.correct = false;
    failed.attempted = 1;
    failed.failed = 1;
    std::printf("%s\n", ResultJson(failed).c_str());
    return 1;
  }
  // No operation may fail, and the printed metrics must be exactly the ones
  // BENCHMARK.json declares (an unreadable BENCHMARK.json fails the check).
  Status none_failed = CheckNoneFailed(result->attempted, result->failed);
  Result<BenchmarkSpec> spec = ReadBenchmarkSpec(args.benchmark_json);
  Status declared = spec.status();
  if (spec.ok()) {
    declared = CheckDeclared(
        *result, config.trace ? spec->per_layer : spec->end_to_end);
  }
  for (const Status& check : {none_failed, declared}) {
    if (!check.ok()) {
      std::fprintf(stderr, "adarts_bench: %s\n", check.ToString().c_str());
      result->correct = false;
    }
  }
  std::printf("workload %s seed %llu%s\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? " (traced replay)" : "");
  for (const Metric& m : result->metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(*result).c_str());
  return result->correct ? 0 : 1;
}

int RunAll(const Args& args) {
  RunResult all;
  for (const std::string& workload : WorkloadNames()) {
    Result<RunResult> r =
        RunChild(ChildArgs(args, workload, args.config.seed));
    if (!r.ok()) {
      std::fprintf(stderr, "adarts_bench: %s: %s\n", workload.c_str(),
                   r.status().ToString().c_str());
      all.correct = false;
      continue;
    }
    all.attempted += r->attempted;
    all.failed += r->failed;
    for (const Metric& m : r->metrics) {
      all.metrics.push_back({workload + "." + m.name, m.value, m.unit});
    }
  }
  std::printf("%s\n", ResultJson(all).c_str());
  return all.correct ? 0 : 1;
}

int Repeat(const Args& args) {
  Result<BenchmarkSpec> spec = ReadBenchmarkSpec(args.benchmark_json);
  if (!spec.ok()) return Usage(spec.status().ToString());
  bool ok = true;
  std::ostringstream json;
  json << std::setprecision(10) << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"runs\":" << args.repeat << ",\"first_seed\":" << args.config.seed
       << ",\"seconds\":" << args.config.seconds
       << ",\"trace\":" << (args.config.trace ? 1 : 0) << ",\"workloads\":{";
  std::ostringstream table;
  bool first_workload = true;
  for (const std::string& workload : Selected(args)) {
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::string> units;
    std::vector<std::string> order;
    for (int r = 0; r < args.repeat; ++r) {
      Result<RunResult> run = RunChild(
          ChildArgs(args, workload, args.config.seed + static_cast<unsigned>(r)));
      if (!run.ok()) {
        std::fprintf(stderr, "adarts_bench: %s: %s\n", workload.c_str(),
                     run.status().ToString().c_str());
        ok = false;
        continue;
      }
      for (const Metric& m : run->metrics) {
        if (values.count(m.name) == 0) order.push_back(m.name);
        values[m.name].push_back(m.value);
        units[m.name] = m.unit;
      }
    }
    json << (first_workload ? "" : ",") << '"' << workload << "\":{";
    first_workload = false;
    bool first_metric = true;
    for (const std::string& name : order) {
      const std::vector<double>& v = values[name];
      if (v.size() < 2) continue;
      const std::array<double, 3> q = Quartiles(v);
      const double spread = q[1] != 0.0 ? (q[2] - q[0]) / q[1] : 0.0;
      const auto bound_it = spec->end_to_end.find(name);
      const bool bounded = !args.config.trace && bound_it != spec->end_to_end.end();
      const double bound = bounded ? bound_it->second.bound : 0.0;
      // setup_s has no spread rule; only its median is compared.
      const bool flagged = bounded && name != "setup_s" && spread > bound;
      ok &= !flagged;
      const char* note = flagged ? "FLAG: spread above bound"
                         : bounded && name != "setup_s" && spread > bound / 3.0
                             ? "above bound/3"
                             : "";
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%-16s %-28s %12.6g %12.6g %12.6g %8.4f %6.2f %s\n",
                    workload.c_str(), name.c_str(), q[1], q[0], q[2], spread,
                    bound, note);
      table << line;
      json << (first_metric ? "" : ",") << '"' << name << "\":{\"unit\":\""
           << units[name] << "\",\"median\":" << q[1] << ",\"q1\":" << q[0]
           << ",\"q3\":" << q[2] << ",\"spread\":" << spread
           << ",\"values\":[";
      first_metric = false;
      for (std::size_t i = 0; i < v.size(); ++i) {
        json << (i == 0 ? "" : ",") << v[i];
      }
      json << "]}";
    }
    json << "}";
  }
  json << "}}";
  std::printf("\n%-16s %-28s %12s %12s %12s %8s %6s\n%s", "workload", "metric",
              "median", "q1", "q3", "spread", "bound", table.str().c_str());
  if (!args.repeat_json.empty()) {
    std::ofstream out(args.repeat_json, std::ios::trunc);
    out << json.str() << "\n";
    if (!out) return Usage("cannot write " + args.repeat_json);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace adarts::e2e

int main(int argc, char** argv) {
  using namespace adarts::e2e;
  // The program's own tracer stays off: only the benchmark's spans appear.
  ::unsetenv("ADARTS_TRACE");
  Args args;
  const std::string problem = Parse(argc, argv, &args);
  if (!problem.empty()) return Usage(problem);
  if (args.repeat > 0) return Repeat(args);
  if (args.config.workload.empty()) return RunAll(args);
  return RunOne(args);
}
