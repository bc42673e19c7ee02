#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace adarts::e2e {

std::string ResultJson(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\":" << (result.correct ? "true" : "false")
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"metrics\":{";
  char value[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // Full precision: the value as measured, not a rounded display.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i == 0 ? "" : ",") << '"' << m.name << "\":{\"value\":" << value
        << ",\"unit\":\"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

Result<RunResult> ParseResultJson(const std::string& line) {
  ADARTS_ASSIGN_OR_RETURN(json::JsonValue root, json::ParseJson(line));
  const json::JsonValue* correct = root.Find("correct");
  const json::JsonValue* metrics = root.Find("metrics");
  if (correct == nullptr || correct->type != json::JsonValue::Type::kBool ||
      metrics == nullptr || !metrics->is_object()) {
    return Status::InvalidArgument("not a benchmark result line");
  }
  RunResult result;
  result.correct = correct->boolean;
  result.attempted =
      static_cast<std::uint64_t>(root.NumberOr("attempted", 0.0));
  result.failed = static_cast<std::uint64_t>(root.NumberOr("failed", 0.0));
  for (const auto& [name, entry] : metrics->object) {
    const json::JsonValue* unit = entry.Find("unit");
    result.metrics.push_back(
        {name, entry.NumberOr("value", 0.0),
         unit != nullptr && unit->is_string() ? unit->str : ""});
  }
  return result;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  const long n = 4;
  std::array<double, 3> out{};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return out;
}

Result<BenchmarkSpec> ReadBenchmarkSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  ADARTS_ASSIGN_OR_RETURN(json::JsonValue root, json::ParseJson(text.str()));
  BenchmarkSpec spec;
  const auto read_list = [&](const char* key,
                             std::map<std::string, BenchmarkSpec::Entry>* out)
      -> Status {
    const json::JsonValue* list = root.Find(key);
    if (list == nullptr || !list->is_array()) {
      return Status::InvalidArgument(path + ": no " + key + " list");
    }
    for (const json::JsonValue& item : list->array) {
      const json::JsonValue* name = item.Find("name");
      const json::JsonValue* unit = item.Find("unit");
      if (name == nullptr || !name->is_string() || unit == nullptr ||
          !unit->is_string()) {
        return Status::InvalidArgument(path + ": malformed entry in " + key);
      }
      (*out)[name->str] = {unit->str, item.NumberOr("bound", 0.0)};
    }
    return Status::OK();
  };
  ADARTS_RETURN_NOT_OK(read_list("end_to_end", &spec.end_to_end));
  ADARTS_RETURN_NOT_OK(read_list("per_layer", &spec.per_layer));
  return spec;
}

Status CheckDeclared(
    const RunResult& result,
    const std::map<std::string, BenchmarkSpec::Entry>& declared) {
  std::map<std::string, std::string> printed;
  for (const Metric& m : result.metrics) printed[m.name] = m.unit;
  for (const auto& [name, entry] : declared) {
    const auto it = printed.find(name);
    if (it == printed.end()) {
      return Status::Internal("declared metric not measured: " + name);
    }
    if (it->second != entry.unit) {
      return Status::Internal("metric " + name + " measured in " + it->second +
                              ", declared in " + entry.unit);
    }
  }
  for (const auto& [name, unit] : printed) {
    if (declared.count(name) == 0) {
      return Status::Internal("measured metric not declared: " + name);
    }
  }
  return Status::OK();
}

}  // namespace adarts::e2e
