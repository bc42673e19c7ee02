#include "common/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace adarts::json {
namespace {

constexpr int kMaxDepth = 128;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Status Parse(JsonValue* out) {
    ADARTS_RETURN_NOT_OK(ParseValue(out, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing bytes after document");
    return Status::OK();
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
      case 'n':
        return ParseLiteral(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    if (!Consume('{')) return Error("expected '{'");
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      std::string key;
      ADARTS_RETURN_NOT_OK(ParseString(&key));
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      ADARTS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    if (!Consume('[')) return Error("expected '['");
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      ADARTS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected '\"'");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          // The engine's writers only emit \u00XX escapes for control
          // characters; decode the low byte and ignore the always-zero
          // high byte.
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          for (std::size_t i = 0; i < 4; ++i) {
            if (std::isxdigit(static_cast<unsigned char>(text_[pos_ + i])) ==
                0) {
              return Error("bad \\u escape");
            }
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          out->push_back(static_cast<char>(
              std::strtol(hex.c_str(), nullptr, 16) & 0xff));
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) return Error("unexpected character");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Error("malformed number '" + token + "'");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return Status::OK();
  }

  Status ParseLiteral(JsonValue* out) {
    const auto match = [&](const char* word) {
      const std::size_t len = std::strlen(word);
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    if (match("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (match("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return Status::OK();
    }
    if (match("null")) {
      out->type = JsonValue::Type::kNull;
      return Status::OK();
    }
    return Error("unknown literal");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

Result<JsonValue> ParseJson(const std::string& text) {
  JsonValue value;
  ADARTS_RETURN_NOT_OK(Parser(text).Parse(&value));
  return value;
}

std::string Escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace adarts::json
