#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

namespace adarts::e2e {

Status CheckSameSequence(std::string_view what,
                         const std::vector<std::string>& expected,
                         const std::vector<std::string>& got) {
  const std::string label(what);
  if (expected.size() != got.size()) {
    return Status::Internal(label + ": " + std::to_string(got.size()) +
                            " items, expected " +
                            std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != expected[i]) {
      return Status::Internal(label + ": item " + std::to_string(i) + " is '" +
                              got[i] + "', expected '" + expected[i] + "'");
    }
  }
  return Status::OK();
}

Status CheckBitIdentical(std::string_view what, const la::Vector& expected,
                         const la::Vector& got) {
  const std::string label(what);
  if (expected.size() != got.size()) {
    return Status::Internal(label + ": " + std::to_string(got.size()) +
                            " values, expected " +
                            std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &expected[i], sizeof(double)) != 0) {
      return Status::Internal(label + ": value " + std::to_string(i) +
                              " differs (" + std::to_string(got[i]) + " vs " +
                              std::to_string(expected[i]) + ")");
    }
  }
  return Status::OK();
}

Status CheckRepairedSet(const std::vector<ts::TimeSeries>& input,
                        const std::vector<ts::TimeSeries>& output) {
  if (input.size() != output.size()) {
    return Status::Internal("repaired set has " +
                            std::to_string(output.size()) + " series, input " +
                            std::to_string(input.size()));
  }
  for (std::size_t s = 0; s < input.size(); ++s) {
    const ts::TimeSeries& in = input[s];
    const ts::TimeSeries& out = output[s];
    const std::string where = "repaired series " + std::to_string(s);
    if (in.length() != out.length()) {
      return Status::Internal(where + " has length " +
                              std::to_string(out.length()) + ", input " +
                              std::to_string(in.length()));
    }
    for (std::size_t t = 0; t < in.length(); ++t) {
      const double v = out.value(t);
      if (out.IsMissing(t) || !std::isfinite(v)) {
        return Status::Internal(where + " position " + std::to_string(t) +
                                " is missing or not finite");
      }
      const double observed = in.value(t);
      if (!in.IsMissing(t) &&
          std::memcmp(&v, &observed, sizeof(double)) != 0) {
        return Status::Internal(where + " changed observed position " +
                                std::to_string(t));
      }
    }
  }
  return Status::OK();
}

Status CheckSwapVersions(const std::vector<Reply>& replies,
                         const std::vector<std::uint64_t>& published) {
  const std::set<std::uint64_t> allowed(published.begin(), published.end());
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].code != StatusCode::kOk) continue;
    const std::uint64_t version = replies[i].engine_version;
    if (allowed.count(version) == 0) {
      return Status::Internal("reply " + std::to_string(i) +
                              " came from unpublished engine version " +
                              std::to_string(version));
    }
    seen.insert(version);
  }
  if (seen.size() < 2) {
    return Status::Internal("only " + std::to_string(seen.size()) +
                            " engine version(s) answered during the swaps");
  }
  return Status::OK();
}

Status CheckAllAnswered(std::size_t attempted, std::size_t answered) {
  if (attempted != answered) {
    return Status::Internal(std::to_string(answered) + " of " +
                            std::to_string(attempted) +
                            " requests answered");
  }
  return Status::OK();
}

Status CheckNoneFailed(std::uint64_t attempted, std::uint64_t failed) {
  if (failed != 0) {
    return Status::Internal(std::to_string(failed) + " of " +
                            std::to_string(attempted) + " operations failed");
  }
  return Status::OK();
}

}  // namespace adarts::e2e
