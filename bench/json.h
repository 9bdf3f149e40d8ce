#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

/// Byte-stable JSON emission helpers and a minimal recursive-descent parser,
/// shared by the results pipeline (bench/results.cpp), the profile writer,
/// the nestpar_prof analyzer, and the structural trace tests. Only what our
/// own emitters produce is required, but the grammar is complete enough for
/// hand-edited baseline files (numbers, strings with escapes, bools, null,
/// arrays, objects, arbitrary whitespace).
namespace nestpar::bench {

/// Shortest round-trip form via std::to_chars, so the same value always
/// serializes to the same bytes. Non-finite doubles collapse to 0.
std::string json_num(double v);
std::string json_num(std::uint64_t v);

/// Quote + escape a string for JSON output.
std::string json_str(const std::string& s);

/// Append `{"k": v, ...}` with sorted keys (std::map order) to `out`.
void append_num_map(std::string& out, const std::map<std::string, double>& m);

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  double number() const { return std::get<double>(v); }
  const std::string& string() const { return std::get<std::string>(v); }
};

/// Parse one complete JSON document (trailing content is an error). Throws
/// std::runtime_error naming the byte offset on malformed input.
JsonValue parse_json(const std::string& text);

/// Field lookups with typed errors (std::runtime_error) naming what is
/// missing or mistyped. `require_u64` also rejects negative, out-of-range
/// and non-finite counts instead of converting them.
const JsonValue& require(const JsonObject& obj, const std::string& key);
double require_num(const JsonObject& obj, const std::string& key);
std::uint64_t require_u64(const JsonObject& obj, const std::string& key);
std::string require_str(const JsonObject& obj, const std::string& key);
const JsonObject& require_obj(const JsonObject& obj, const std::string& key);
const JsonArray& require_arr(const JsonObject& obj, const std::string& key);

/// Checked views of a value; `what` names it in the std::runtime_error.
const JsonObject& as_object(const JsonValue& v, const std::string& what);
const JsonArray& as_array(const JsonValue& v, const std::string& what);

/// Read an optional `{"k": number, ...}` field; absent -> empty map, present
/// but mistyped -> std::runtime_error.
std::map<std::string, double> num_map(const JsonObject& obj,
                                      const std::string& key);

/// Missing-key-tolerant integer lookup in a parsed number map.
std::uint64_t opt_u64(const std::map<std::string, double>& m,
                      const std::string& key);

}  // namespace nestpar::bench
