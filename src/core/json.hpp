// Internal: the minimal JSON reader/writer shared by the ResultTable JSON
// sink and the fault-plan round-trip. The parser is a strict recursive-
// descent reader for the subset the writers emit (objects, arrays, strings
// with basic escapes, numbers, null); the writers escape strings and print
// doubles with enough digits to restore the exact bits.
#pragma once

#include <cmath>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/parse_util.hpp"

namespace sanperf::core::detail {

/// Shortest decimal form that restores the exact double bits.
inline std::string json_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline void write_json_string(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char ch : text) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

/// NaN/inf are not representable in JSON; they round-trip as null -> NaN.
inline void write_json_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << json_exact(v);
  } else {
    os << "null";
  }
}

/// Minimal recursive-descent parser. `context` names the caller in error
/// messages ("FaultPlan::from_json", ...).
class JsonParser {
 public:
  struct JsonValue {
    // variant poor-man's style: exactly one engaged
    std::optional<double> number;
    std::string number_text;  ///< raw token, so integers keep > 2^53 exact
    std::optional<std::string> string;
    std::optional<std::vector<JsonValue>> array;
    std::optional<std::vector<std::pair<std::string, JsonValue>>> object;
    bool is_null = false;
  };

  explicit JsonParser(std::string_view text, std::string context)
      : text_{text}, context_{std::move(context)} {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

  [[nodiscard]] static const JsonValue* field(const JsonValue& obj, std::string_view key) {
    if (!obj.object) return nullptr;
    for (const auto& [k, v] : *obj.object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument{context_ + ": " + what + " at offset " + std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string{"expected '"} + ch + "'");
    ++pos_;
  }

  JsonValue value() {
    const char ch = peek();
    if (ch == '{') return object();
    if (ch == '[') return array();
    if (ch == '"') {
      JsonValue v;
      v.string = string();
      return v;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      JsonValue v;
      v.is_null = true;
      return v;
    }
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char ch = text_[pos_++];
      if (ch == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': ch = '\n'; break;
          case 't': ch = '\t'; break;
          case 'r': ch = '\r'; break;
          case '"': ch = '"'; break;
          case '\\': ch = '\\'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            ch = static_cast<char>(
                std::strtol(std::string{text_.substr(pos_, 4)}.c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: fail("unsupported escape");
        }
      }
      out.push_back(ch);
    }
    expect('"');
    return out;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.number_text = std::string{text_.substr(start, pos_ - start)};
    v.number = parse_real(v.number_text, context_);
    return v;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.array.emplace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array->push_back(value());
      const char ch = peek();
      ++pos_;
      if (ch == ']') return v;
      if (ch != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.object.emplace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      std::string key = string();
      expect(':');
      v.object->emplace_back(std::move(key), value());
      const char ch = peek();
      ++pos_;
      if (ch == '}') return v;
      if (ch != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace sanperf::core::detail
