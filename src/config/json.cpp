#include "config/json.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace config::json {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) fail("not a bool");
  return bool_;
}

double Value::as_double() const {
  if (kind_ == Kind::kDouble) return dbl_;
  if (kind_ == Kind::kInt) {
    const auto mag = static_cast<double>(u64_);
    return neg_ ? -mag : mag;
  }
  fail("not a number");
}

std::int64_t Value::as_i64() const {
  if (kind_ != Kind::kInt) fail("not an integer");
  if (neg_) {
    if (u64_ > static_cast<std::uint64_t>(
                   std::numeric_limits<std::int64_t>::max()) +
                   1) {
      fail("integer out of int64 range");
    }
    return -static_cast<std::int64_t>(u64_ - 1) - 1;
  }
  if (u64_ > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
    fail("integer out of int64 range");
  }
  return static_cast<std::int64_t>(u64_);
}

std::uint64_t Value::as_u64() const {
  if (kind_ != Kind::kInt || neg_) fail("not a non-negative integer");
  return u64_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) fail("not a string");
  return str_;
}

const Value::Array& Value::items() const {
  if (kind_ != Kind::kArray) fail("not an array");
  return arr_;
}

const Value::Object& Value::members() const {
  if (kind_ != Kind::kObject) fail("not an object");
  return obj_;
}

Value& Value::push(Value v) {
  if (kind_ != Kind::kArray) fail("push on non-array");
  arr_.push_back(std::move(v));
  return *this;
}

Value& Value::set(std::string_view key, Value v) {
  if (kind_ != Kind::kObject) fail("set on non-object");
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj_.emplace_back(std::string(key), std::move(v));
  return *this;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing field '" + std::string(key) + "'");
  }
  return *v;
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kInt:
      return neg_ == other.neg_ && u64_ == other.u64_;
    case Kind::kDouble:
      return dbl_ == other.dbl_;
    case Kind::kString:
      return str_ == other.str_;
    case Kind::kArray:
      return arr_ == other.arr_;
    case Kind::kObject:
      return obj_ == other.obj_;
  }
  return false;
}

// ---- dump -------------------------------------------------------------------

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void append_newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kInt: {
      if (neg_) out += '-';
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, u64_);
      out.append(buf, res.ptr);
      return;
    }
    case Kind::kDouble: {
      char buf[40];
      const auto res = std::to_chars(buf, buf + sizeof buf, dbl_);
      out.append(buf, res.ptr);
      return;
    }
    case Kind::kString:
      dump_string(out, str_);
      return;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out += ',';
        first = false;
        if (indent >= 0) append_newline_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        if (indent >= 0) append_newline_indent(out, indent, depth + 1);
        dump_string(out, k);
        out += indent >= 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---- parse ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) error("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value(parse_string());
      case 't':
        if (!consume("true")) error("bad literal");
        return Value(true);
      case 'f':
        if (!consume("false")) error("bad literal");
        return Value(false);
      case 'n':
        if (!consume("null")) error("bad literal");
        return Value();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    ++pos_;  // '{'
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') error("expected object key");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') error("expected ':'");
      ++pos_;
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      error("expected ',' or '}'");
    }
  }

  Value parse_array() {
    ++pos_;  // '['
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      error("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) error("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              error("bad \\u escape");
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs unsupported;
          // the serializer never emits them).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          }
          break;
        }
        default:
          error("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool negative = false;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") error("bad number");
    if (!is_double) {
      std::uint64_t mag = 0;
      const std::string_view digits = negative ? tok.substr(1) : tok;
      const auto res =
          std::from_chars(digits.data(), digits.data() + digits.size(), mag);
      if (res.ec == std::errc() && res.ptr == digits.data() + digits.size()) {
        Value v(mag);
        if (negative) {
          if (mag > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max())) {
            error("integer out of range");
          }
          v = Value(-static_cast<std::int64_t>(mag));
        }
        return v;
      }
      // Overflowed uint64: fall through to double.
    }
    double d = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      error("bad number");
    }
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Value::parse(std::string_view text) { return Parser(text).parse_document(); }

std::string content_digest(const Value& v) {
  const std::string canon = v.dump();
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : canon) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

Value seal(std::string_view format, std::string_view field, Value payload) {
  Value env = Value::object();
  env.set("format", std::string(format));
  env.set("checksum", content_digest(payload));
  env.set(field, std::move(payload));
  return env;
}

const Value* unseal(const Value& envelope, std::string_view format,
                    std::string_view field) {
  const Value* fmt = envelope.find("format");
  const Value* sum = envelope.find("checksum");
  const Value* payload = envelope.find(field);
  if (fmt == nullptr || sum == nullptr || payload == nullptr ||
      !fmt->is_string() || !sum->is_string() || fmt->as_string() != format ||
      sum->as_string() != content_digest(*payload)) {
    return nullptr;
  }
  return payload;
}

}  // namespace config::json
