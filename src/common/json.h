#ifndef ADARTS_COMMON_JSON_H_
#define ADARTS_COMMON_JSON_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace adarts::json {

/// A parsed JSON value. The repo deliberately has no third-party JSON
/// dependency; this is the minimal recursive-descent reader shared by the
/// offline tools (trace_stats, bench_compare) that digest the engine's own
/// JSON output (trace exports, BENCH_*.json records, metrics dumps).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  /// `Find(key)->number` when that member is a number, else `fallback`.
  double NumberOr(const std::string& key, double fallback) const;
};

/// Parses `text` as one complete JSON document. Hostile input never
/// crashes: malformed syntax, trailing bytes, unterminated strings and
/// nesting deeper than 128 levels (a stack-overflow guard) all return
/// InvalidArgument with a byte offset.
Result<JsonValue> ParseJson(const std::string& text);

/// `text` escaped for the inside of a JSON string literal, the one escaper
/// every JSON writer in the repo shares: quote and backslash get a
/// backslash, `\n` and `\t` their short forms, the remaining bytes below
/// 0x20 become `\u00XX` (RFC 8259 forbids them raw) and all others pass
/// through, so `ParseJson` reads back exactly `text`.
std::string Escape(std::string_view text);

}  // namespace adarts::json

#endif  // ADARTS_COMMON_JSON_H_
