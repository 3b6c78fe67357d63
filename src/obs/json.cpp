#include "src/obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "src/util/error.h"

namespace tp::obs {

bool JsonValue::as_bool() const {
  TP_REQUIRE(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  TP_REQUIRE(kind_ == Kind::Number, "JSON value is not a number");
  return num_;
}

i64 JsonValue::as_int() const {
  TP_REQUIRE(kind_ == Kind::Number, "JSON value is not a number");
  return static_cast<i64>(std::llround(num_));
}

const std::string& JsonValue::as_string() const {
  TP_REQUIRE(kind_ == Kind::String, "JSON value is not a string");
  return str_;
}

void JsonValue::push_back(JsonValue v) {
  TP_REQUIRE(kind_ == Kind::Array, "push_back on a non-array JSON value");
  items_.push_back(std::move(v));
}

const std::vector<JsonValue>& JsonValue::items() const {
  TP_REQUIRE(kind_ == Kind::Array, "items() on a non-array JSON value");
  return items_;
}

void JsonValue::set(std::string key, JsonValue v) {
  TP_REQUIRE(kind_ == Kind::Object, "set() on a non-object JSON value");
  for (auto& [k, existing] : members_)
    if (k == key) {
      existing = std::move(v);
      return;
    }
  members_.emplace_back(std::move(key), std::move(v));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  TP_REQUIRE(kind_ == Kind::Object, "find() on a non-object JSON value");
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  TP_REQUIRE(kind_ == Kind::Object, "members() on a non-object JSON value");
  return members_;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  out += '"';
  return out;
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::Number: {
      // to_chars writes the bytes of "%lld" and "%.17g" (test_obs pins
      // this), without snprintf's format parsing and locale lookup.
      char buf[40];
      const std::to_chars_result r =
          is_int_ || (std::nearbyint(num_) == num_ &&
                      std::fabs(num_) < 9.007199254740992e15)
              ? std::to_chars(buf, buf + sizeof buf,
                              static_cast<long long>(num_))
              : std::to_chars(buf, buf + sizeof buf, num_,
                              std::chars_format::general, 17);
      out.append(buf, r.ptr);
      break;
    }
    case Kind::String:
      out += json_quote(str_);
      break;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        items_[i].dump_to(out);
      }
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        out += json_quote(members_[i].first);
        out += ':';
        members_[i].second.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    TP_REQUIRE(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue();
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (no surrogate pairing; the
          // exporters never emit any).
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
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* endp = nullptr;
    const double value = std::strtod(token.c_str(), &endp);
    if (endp != token.c_str() + token.size()) fail("malformed number");
    if (integral) return JsonValue(static_cast<i64>(value));
    return JsonValue(value);
  }
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

bool blank_line(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

}  // namespace tp::obs
