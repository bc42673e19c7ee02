#ifndef ADARTS_TOOLS_TOOL_ARGS_H_
#define ADARTS_TOOLS_TOOL_ARGS_H_

// The command line shared by the tools: `--key value` flags, numeric
// getters that reject anything but a fully parsed in-range value, and the
// two error exits (1 = the run failed, 2 = the command line is wrong).

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/status.h"

namespace adarts::tools {

/// `text` as a number that parses fully and is >= 0 (NaN is rejected); an
/// InvalidArgument naming `flag` otherwise. A malformed value must never
/// quietly become 0: `--rel-tol bogus` would make a gate strict by
/// accident, `--port abc` would listen on a random port.
inline Result<double> ParseNonNegativeDouble(std::string_view flag,
                                             const std::string& text) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !(parsed >= 0.0)) {
    return Status::InvalidArgument("--" + std::string(flag) +
                                   ": expected a non-negative number, got '" +
                                   text + "'");
  }
  return parsed;
}

/// `text` as a decimal integer in [0, max] with nothing before or after it;
/// an InvalidArgument naming `flag` otherwise (negative, trailing garbage,
/// or out of range).
inline Result<std::uint64_t> ParseUint(std::string_view flag,
                                       const std::string& text,
                                       std::uint64_t max) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc() && ptr == last && value <= max) return value;
  return Status::InvalidArgument("--" + std::string(flag) +
                                 ": expected an integer in [0, " +
                                 std::to_string(max) + "], got '" + text +
                                 "'");
}

/// The `--key value` flags of one invocation (the leading `--` is
/// optional; a repeated key keeps its last value).
class Args {
 public:
  /// Parses argv[first..argc). Keys in `switches` take no value (`--once`)
  /// and read as "1"; every other key needs one, and a key left without a
  /// value is an error rather than being dropped.
  static Result<Args> Parse(int argc, char** argv, int first = 1,
                            const std::set<std::string>& switches = {}) {
    Args args;
    for (int i = first; i < argc; ++i) {
      std::string_view token = argv[i];
      if (token.rfind("--", 0) == 0) token.remove_prefix(2);
      std::string key(token);
      if (switches.count(key) != 0) {
        args.values_.insert_or_assign(std::move(key), std::string("1"));
      } else if (i + 1 < argc) {
        args.values_.insert_or_assign(std::move(key), std::string(argv[++i]));
      } else {
        return Status::InvalidArgument("--" + key + ": missing value");
      }
    }
    return args;
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  /// The key's value, or `fallback` when the flag is absent.
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }

  /// Reads an integer flag into `*out`, which keeps its value (the default)
  /// when the flag is absent. The value must be an integer in [0, max].
  template <typename T>
  Status GetUint(const std::string& key, T* out,
                 T max = std::numeric_limits<T>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return Status::OK();
    ADARTS_ASSIGN_OR_RETURN(
        const std::uint64_t value,
        ParseUint(key, it->second, static_cast<std::uint64_t>(max)));
    *out = static_cast<T>(value);
    return Status::OK();
  }

  /// Reads a non-negative number flag into `*out` (kept when absent).
  Status GetDouble(const std::string& key, double* out) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return Status::OK();
    ADARTS_ASSIGN_OR_RETURN(*out, ParseNonNegativeDouble(key, it->second));
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The daemon port from --port or, when that is absent or 0, from the file
/// named by --port-file (as `adarts_serve --port-file` writes it).
/// InvalidArgument when neither yields a port in [1, 65535].
inline Result<std::uint16_t> DaemonPort(const Args& args) {
  std::uint16_t port = 0;
  ADARTS_RETURN_NOT_OK(args.GetUint("port", &port));
  const std::string port_file = args.Get("port-file");
  if (port == 0 && !port_file.empty()) {
    std::ifstream in(port_file);
    std::string text;
    in >> text;
    ADARTS_ASSIGN_OR_RETURN(const std::uint64_t from_file,
                            ParseUint("port-file", text, 65535));
    port = static_cast<std::uint16_t>(from_file);
  }
  if (port == 0) {
    return Status::InvalidArgument(
        "--port or --port-file must name a port in [1, 65535]");
  }
  return port;
}

/// Reports a failed run on stderr; returns exit code 1.
inline int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Reports a malformed command line on stderr; returns exit code 2.
inline int BadFlag(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

/// The first non-OK status of `checks`, or OK. Lets a tool read every flag
/// in one braced list and report the first bad one.
inline Status FirstError(std::initializer_list<Status> checks) {
  for (const Status& check : checks) {
    if (!check.ok()) return check;
  }
  return Status::OK();
}

}  // namespace adarts::tools

#endif  // ADARTS_TOOLS_TOOL_ARGS_H_
