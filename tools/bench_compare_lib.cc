#include "tools/bench_compare_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "tools/tool_args.h"

namespace adarts::tools {
namespace {

using json::JsonValue;

std::string FmtValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FmtDeltaPercent(double baseline, double current) {
  if (std::abs(baseline) < 1e-12) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%",
                100.0 * (current - baseline) / std::abs(baseline));
  return buf;
}

Status LineError(std::size_t line_number, const std::string& what) {
  return Status::InvalidArgument("bench records line " +
                                 std::to_string(line_number) + ": " + what);
}

/// Flattens the record's perf surface: wall seconds, stage spans, and the
/// latency-histogram percentiles (the `recommend.latency` p99 gate).
void ExtractPerf(const JsonValue& record, BenchRecord* out) {
  out->perf["seconds"] = out->seconds;
  const JsonValue* stages = record.Find("stages");
  if (stages == nullptr || !stages->is_object()) return;
  const JsonValue* spans = stages->Find("spans_seconds");
  if (spans != nullptr && spans->is_object()) {
    for (const auto& [name, value] : spans->object) {
      if (value.is_number()) out->perf["spans." + name] = value.number;
    }
  }
  const JsonValue* histograms = stages->Find("histograms");
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, snapshot] : histograms->object) {
      if (!snapshot.is_object()) continue;
      for (const char* pct : {"p50_ns", "p90_ns", "p99_ns"}) {
        const JsonValue* v = snapshot.Find(pct);
        if (v != nullptr && v->is_number()) {
          out->perf["hist." + name + "." + pct] = v->number;
        }
      }
    }
  }
}

Result<BenchRecord> RecordFromJson(const JsonValue& value,
                                   std::size_t line_number) {
  if (!value.is_object()) {
    return LineError(line_number, "record is not a JSON object");
  }
  const JsonValue* bench = value.Find("bench");
  if (bench == nullptr || !bench->is_string()) {
    return LineError(line_number, "missing string field 'bench'");
  }
  const JsonValue* params = value.Find("params");
  if (params == nullptr || !params->is_object()) {
    return LineError(line_number, "missing object field 'params'");
  }
  const JsonValue* seconds = value.Find("seconds");
  const JsonValue* checksum = value.Find("checksum");
  if (seconds == nullptr || !seconds->is_number() || checksum == nullptr ||
      !checksum->is_number()) {
    return LineError(line_number, "missing number fields 'seconds'/'checksum'");
  }
  BenchRecord record;
  record.bench = bench->str;
  for (const auto& [key, v] : params->object) {
    if (!v.is_string()) {
      return LineError(line_number, "param '" + key + "' is not a string");
    }
    record.params.emplace_back(key, v.str);
  }
  std::sort(record.params.begin(), record.params.end());
  record.seconds = seconds->number;
  record.checksum = checksum->number;
  const JsonValue* metrics = value.Find("metrics");
  if (metrics != nullptr) {
    if (!metrics->is_object()) {
      return LineError(line_number, "'metrics' is not an object");
    }
    for (const auto& [key, v] : metrics->object) {
      if (!v.is_number()) {
        return LineError(line_number, "metric '" + key + "' is not a number");
      }
      record.metrics[key] = v.number;
    }
  }
  ExtractPerf(value, &record);
  return record;
}

bool ExceedsTolerance(double baseline, double current, double rel_tol,
                      double abs_tol) {
  const double delta = std::abs(current - baseline);
  return delta > abs_tol + rel_tol * std::abs(baseline);
}

const char* KindLabel(Finding::Kind kind) {
  switch (kind) {
    case Finding::Kind::kChecksumDrift:
      return "DRIFT";
    case Finding::Kind::kMetricRegression:
      return "REGRESSION";
    case Finding::Kind::kMetricImprovement:
      return "IMPROVEMENT";
    case Finding::Kind::kPerfRegression:
      return "PERF-REGRESSION";
    case Finding::Kind::kMissingRecord:
      return "MISSING";
    case Finding::Kind::kMissingMetric:
      return "MISSING-METRIC";
    case Finding::Kind::kAddedRecord:
      return "ADDED";
  }
  return "?";
}

}  // namespace

std::string BenchRecord::Key() const {
  std::string key = bench + "{";
  bool first = true;
  for (const auto& [k, v] : params) {
    if (!first) key += ',';
    first = false;
    key += k + "=" + v;
  }
  key += "}";
  return key;
}

Result<std::vector<BenchRecord>> ParseBenchRecords(const std::string& text) {
  std::vector<BenchRecord> records;
  std::map<std::string, std::size_t> index_by_key;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto parsed = json::ParseJson(line);
    if (!parsed.ok()) {
      return LineError(line_number, parsed.status().message());
    }
    ADARTS_ASSIGN_OR_RETURN(BenchRecord record,
                            RecordFromJson(*parsed, line_number));
    const std::string key = record.Key();
    const auto it = index_by_key.find(key);
    if (it != index_by_key.end()) {
      records[it->second] = std::move(record);  // appended re-run: last wins
    } else {
      index_by_key[key] = records.size();
      records.push_back(std::move(record));
    }
  }
  return records;
}

bool MetricHigherIsBetter(const std::string& name) {
  static const char* const kHigherBetter[] = {
      "win_rate", "accuracy", "precision", "recall",  "f1",
      "mrr",      "throughput", "qps",     "agreement", "coverage",
      "speedup",
  };
  for (const char* token : kHigherBetter) {
    if (name.find(token) != std::string::npos) return true;
  }
  return false;
}

bool Finding::fails() const {
  switch (kind) {
    case Kind::kChecksumDrift:
    case Kind::kMetricRegression:
    case Kind::kPerfRegression:
    case Kind::kMissingRecord:
    case Kind::kMissingMetric:
      return true;
    case Kind::kMetricImprovement:
    case Kind::kAddedRecord:
      return false;
  }
  return false;
}

std::string Finding::ToString() const {
  std::string out = KindLabel(kind);
  out += " ";
  out += key;
  if (!field.empty()) {
    out += " ";
    out += field;
  }
  switch (kind) {
    case Kind::kMissingRecord:
      out += " (in baseline, absent from current run)";
      break;
    case Kind::kMissingMetric:
      out += " (metric in baseline, absent from current record)";
      break;
    case Kind::kAddedRecord:
      out += " (new record, not gated)";
      break;
    default:
      out += ": " + FmtValue(baseline) + " -> " + FmtValue(current) + " (" +
             FmtDeltaPercent(baseline, current) + ")";
  }
  return out;
}

bool CompareReport::failed() const {
  return std::any_of(findings.begin(), findings.end(),
                     [](const Finding& f) { return f.fails(); });
}

std::string CompareReport::ToString() const {
  std::string out = "bench_compare: " + std::to_string(compared_records) +
                    " records paired, " + std::to_string(compared_values) +
                    " values checked\n";
  std::size_t failures = 0;
  for (const Finding& finding : findings) {
    out += finding.ToString() + "\n";
    if (finding.fails()) ++failures;
  }
  out += failures == 0
             ? "result: OK\n"
             : "result: FAIL (" + std::to_string(failures) +
                   " failing findings)\n";
  return out;
}

CompareReport CompareBenchRecords(const std::vector<BenchRecord>& baseline,
                                  const std::vector<BenchRecord>& current,
                                  const CompareOptions& options) {
  CompareReport report;
  std::map<std::string, const BenchRecord*> current_by_key;
  for (const BenchRecord& record : current) {
    current_by_key[record.Key()] = &record;
  }
  std::map<std::string, const BenchRecord*> baseline_by_key;
  for (const BenchRecord& record : baseline) {
    baseline_by_key[record.Key()] = &record;
  }

  for (const BenchRecord& old : baseline) {
    const std::string key = old.Key();
    const auto it = current_by_key.find(key);
    if (it == current_by_key.end()) {
      report.findings.push_back({Finding::Kind::kMissingRecord, key, "", 0.0,
                                 0.0});
      continue;
    }
    const BenchRecord& now = *it->second;
    ++report.compared_records;

    // The checksum is the bench's one result digest: movement in either
    // direction beyond tolerance means the results changed — red either
    // way, and an intentional change means re-baselining.
    ++report.compared_values;
    if (ExceedsTolerance(old.checksum, now.checksum, options.rel_tol,
                         options.abs_tol)) {
      report.findings.push_back({Finding::Kind::kChecksumDrift, key,
                                 "checksum", old.checksum, now.checksum});
    }

    for (const auto& [name, old_value] : old.metrics) {
      const auto metric = now.metrics.find(name);
      if (metric == now.metrics.end()) {
        report.findings.push_back({Finding::Kind::kMissingMetric, key,
                                   "metrics." + name, old_value, 0.0});
        continue;
      }
      ++report.compared_values;
      const double new_value = metric->second;
      if (!ExceedsTolerance(old_value, new_value, options.rel_tol,
                            options.abs_tol)) {
        continue;
      }
      const bool higher_better = MetricHigherIsBetter(name);
      const bool got_worse =
          higher_better ? new_value < old_value : new_value > old_value;
      report.findings.push_back({got_worse
                                     ? Finding::Kind::kMetricRegression
                                     : Finding::Kind::kMetricImprovement,
                                 key, "metrics." + name, old_value,
                                 new_value});
    }

    if (options.check_perf) {
      for (const auto& [name, old_value] : old.perf) {
        const auto perf = now.perf.find(name);
        if (perf == now.perf.end()) continue;  // perf surface may shrink
        ++report.compared_values;
        const double new_value = perf->second;
        // Perf numbers are lower-better; only inflation is a regression.
        if (new_value > old_value &&
            ExceedsTolerance(old_value, new_value, options.perf_rel_tol,
                             options.abs_tol)) {
          report.findings.push_back({Finding::Kind::kPerfRegression, key,
                                     "perf." + name, old_value, new_value});
        }
      }
    }
  }

  for (const BenchRecord& record : current) {
    if (baseline_by_key.find(record.Key()) == baseline_by_key.end()) {
      report.findings.push_back({Finding::Kind::kAddedRecord, record.Key(),
                                 "", 0.0, 0.0});
    }
  }
  return report;
}

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void Emit(std::string* output, const std::string& text) {
  if (output != nullptr) {
    *output += text;
  } else {
    std::fputs(text.c_str(), stdout);
  }
}

constexpr char kUsage[] =
    "usage: bench_compare <baseline.json> <current.json>\n"
    "                     [--rel-tol X] [--abs-tol X]\n"
    "                     [--check-perf] [--perf-rel-tol X]\n"
    "Diffs two BenchJsonWriter JSON-lines files and exits non-zero when the\n"
    "current run regressed: checksum drift, direction-aware metric\n"
    "regressions (win_rate down, rmse up), missing records, and — with\n"
    "--check-perf — inflated seconds/spans/latency percentiles.\n";

}  // namespace

int RunBenchCompare(const std::vector<std::string>& args,
                    std::string* output) {
  CompareOptions options;
  std::vector<std::string> paths;
  bool bad_value = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value_of = [&](const char* flag) -> const char* {
      if (args[i] == flag && i + 1 < args.size()) return args[++i].c_str();
      return nullptr;
    };
    // A tolerance must parse fully as a non-negative number; `--rel-tol
    // bogus` silently meaning zero would make the gate strict by accident.
    const auto parse_tol = [&](const char* flag, const char* v, double* out) {
      const Result<double> parsed = ParseNonNegativeDouble(flag, v);
      if (!parsed.ok()) {
        Emit(output, parsed.status().message() + "\n" + kUsage);
        bad_value = true;
        return;
      }
      *out = *parsed;
    };
    if (args[i] == "--check-perf") {
      options.check_perf = true;
    } else if (const char* v = value_of("--rel-tol")) {
      parse_tol("rel-tol", v, &options.rel_tol);
    } else if (const char* v = value_of("--abs-tol")) {
      parse_tol("abs-tol", v, &options.abs_tol);
    } else if (const char* v = value_of("--perf-rel-tol")) {
      parse_tol("perf-rel-tol", v, &options.perf_rel_tol);
    } else if (!args[i].empty() && args[i][0] == '-') {
      Emit(output, std::string("unknown flag ") + args[i] + "\n" + kUsage);
      return 2;
    } else {
      paths.push_back(args[i]);
    }
  }
  if (bad_value) return 2;
  if (paths.size() != 2) {
    Emit(output, kUsage);
    return 2;
  }

  std::vector<std::vector<BenchRecord>> sides;
  for (const std::string& path : paths) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      Emit(output, text.status().ToString() + "\n");
      return 2;
    }
    auto records = ParseBenchRecords(*text);
    if (!records.ok()) {
      Emit(output, path + ": " + records.status().ToString() + "\n");
      return 2;
    }
    sides.push_back(std::move(*records));
  }

  const CompareReport report =
      CompareBenchRecords(sides[0], sides[1], options);
  Emit(output, report.ToString());
  return report.failed() ? 1 : 0;
}

}  // namespace adarts::tools
