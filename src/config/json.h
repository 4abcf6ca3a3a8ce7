// Minimal JSON value: parse, build, dump.
//
// Scenario specs and results serialize through this (no external JSON
// dependency). Objects preserve insertion order, so a spec built from the
// same fields always dumps the same bytes — which is what makes the
// content-hash digest of a ScenarioSpec stable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace config::json {

class Value;
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Array = std::vector<Value>;
  using Object = std::vector<Member>;

  Value() = default;  // null
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kDouble), dbl_(d) {}
  Value(std::uint64_t u) : kind_(Kind::kInt), u64_(u) {}
  Value(std::int64_t i)
      : kind_(Kind::kInt),
        neg_(i < 0),
        u64_(i < 0 ? static_cast<std::uint64_t>(-(i + 1)) + 1
                   : static_cast<std::uint64_t>(i)) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}
  Value(unsigned u) : Value(static_cast<std::uint64_t>(u)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  // ---- builders -----------------------------------------------------------
  /// Array append (value must be an array).
  Value& push(Value v);
  /// Object insert-or-replace; keeps first-insertion order (value must be
  /// an object).
  Value& set(std::string_view key, Value v);

  /// Object lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Required-field lookup for untrusted documents: like find(), but
  /// throws std::runtime_error naming `key` instead of returning nullptr.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Serialize. indent < 0 → compact one-liner (the canonical form used
  /// for digests); indent >= 0 → pretty-printed with that step.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws std::runtime_error with a byte
  /// offset on malformed input.
  static Value parse(std::string_view text);

  bool operator==(const Value& other) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool neg_ = false;          // sign of an integer value
  std::uint64_t u64_ = 0;     // magnitude of an integer value
  double dbl_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// FNV-1a content hash of a value's canonical (compact) serialization,
/// rendered as 16 hex digits. Used as the ScenarioSpec digest.
[[nodiscard]] std::string content_digest(const Value& v);

/// The checksum envelope the campaign journal writes around each line:
/// {"format": format, "checksum": content_digest(payload), <field>:
/// payload}, so torn writes and bit rot are detectable on read.
[[nodiscard]] Value seal(std::string_view format, std::string_view field,
                         Value payload);
/// The payload of an envelope sealed under (format, field); nullptr when
/// the envelope has another format, lacks a member or fails its checksum.
[[nodiscard]] const Value* unseal(const Value& envelope,
                                  std::string_view format,
                                  std::string_view field);

}  // namespace config::json
