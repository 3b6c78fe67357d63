// Minimal JSON value, writer, and parser for the observability subsystem.
//
// The exporters need to *emit* JSON (stats dumps, Chrome traces) and the
// tooling needs to *read it back* (export_results merges stats dumps into
// CSV; tests round-trip what the exporters wrote).  A ~200-line recursive
// descent parser keeps the repo dependency-free; this is not a general
// JSON library — numbers are doubles (integers up to 2^53 survive exactly,
// which covers every counter this library can realistically accumulate).

#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/math.h"

namespace tp::obs {

/// A parsed or under-construction JSON document node.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(double n) : kind_(Kind::Number), num_(n) {}
  JsonValue(i64 n)
      : kind_(Kind::Number), is_int_(true), num_(static_cast<double>(n)) {}
  JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::String), str_(s) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Value accessors; each throws tp::Error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  i64 as_int() const;
  const std::string& as_string() const;

  /// Array access.
  void push_back(JsonValue v);
  const std::vector<JsonValue>& items() const;

  /// Object access.  set() appends or overwrites; find() returns null when
  /// the key is absent.  Member order is preserved (insertion order).
  void set(std::string key, JsonValue v);
  const JsonValue* find(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Compact single-line serialization.
  std::string dump() const;

 private:
  // The flags share kind_'s word instead of padding num_ on both sides,
  // which keeps every node 8 B smaller.
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  bool is_int_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  void dump_to(std::string& out) const;
};

/// Parses one JSON document.  Throws tp::Error on malformed input or
/// trailing garbage.
JsonValue parse_json(std::string_view text);

/// True when a JSONL line holds only spaces, tabs and CR: readers skip it.
bool blank_line(std::string_view line);

/// Escapes and quotes a string for direct JSON emission.
std::string json_quote(std::string_view s);

}  // namespace tp::obs
