#include "json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace nestpar::bench {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_num(std::uint64_t v) { return std::to_string(v); }

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void append_num_map(std::string& out, const std::map<std::string, double>& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_str(k) + ": " + json_num(v);
  }
  out += '}';
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue{parse_string()};
    if (consume_literal("true")) return JsonValue{true};
    if (consume_literal("false")) return JsonValue{false};
    if (consume_literal("null")) return JsonValue{nullptr};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(obj)};
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue{std::move(obj)};
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(arr)};
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue{std::move(arr)};
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            const auto res = std::from_chars(
                text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
            if (res.ptr != text_.data() + pos_ + 4) fail("bad \\u escape");
            pos_ += 4;
            // Our emitters only escape control chars; decode BMP code
            // points to UTF-8 for completeness.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    double value = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_ ||
        start == pos_) {
      fail("malformed number");
    }
    return JsonValue{value};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

const JsonValue& require(const JsonObject& obj, const std::string& key) {
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::runtime_error("JSON missing required field '" + key + "'");
  }
  return it->second;
}

double require_num(const JsonObject& obj, const std::string& key) {
  const JsonValue& v = require(obj, key);
  if (!v.is_number()) {
    throw std::runtime_error("JSON field '" + key + "' is not a number");
  }
  return v.number();
}

std::uint64_t require_u64(const JsonObject& obj, const std::string& key) {
  const double v = require_num(obj, key);
  if (!(v >= 0.0 && v < 18446744073709551616.0)) {
    throw std::runtime_error("JSON field '" + key + "' is not a count");
  }
  return static_cast<std::uint64_t>(v);
}

std::string require_str(const JsonObject& obj, const std::string& key) {
  const JsonValue& v = require(obj, key);
  if (!v.is_string()) {
    throw std::runtime_error("JSON field '" + key + "' is not a string");
  }
  return v.string();
}

const JsonObject& require_obj(const JsonObject& obj, const std::string& key) {
  return as_object(require(obj, key), "JSON field '" + key + "'");
}

const JsonArray& require_arr(const JsonObject& obj, const std::string& key) {
  return as_array(require(obj, key), "JSON field '" + key + "'");
}

const JsonObject& as_object(const JsonValue& v, const std::string& what) {
  if (!v.is_object()) throw std::runtime_error(what + " is not an object");
  return v.object();
}

const JsonArray& as_array(const JsonValue& v, const std::string& what) {
  if (!v.is_array()) throw std::runtime_error(what + " is not an array");
  return v.array();
}

std::map<std::string, double> num_map(const JsonObject& obj,
                                      const std::string& key) {
  std::map<std::string, double> out;
  const auto it = obj.find(key);
  if (it == obj.end()) return out;
  for (const auto& [k, v] : as_object(it->second, "JSON field '" + key + "'")) {
    if (!v.is_number()) {
      throw std::runtime_error("JSON field '" + key + "." + k +
                               "' is not a number");
    }
    out[k] = v.number();
  }
  return out;
}

std::uint64_t opt_u64(const std::map<std::string, double>& m,
                      const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : static_cast<std::uint64_t>(it->second);
}

}  // namespace nestpar::bench
