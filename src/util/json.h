#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mto {

/// Minimal JSON document model + recursive-descent parser, just enough for
/// configuration files (src/service/ScenarioConfig): null, bool, number
/// (double), string, array, object. No external dependency; strict enough
/// to reject malformed input with a position-annotated error.
///
/// Not meant for data interchange at scale — configs are tiny, so values
/// are a plain tagged tree and objects keep a sorted map for lookups.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}

  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool AsBool() const;
  double AsDouble() const;
  /// AsDouble narrowed to a non-negative integer; throws when the number
  /// has a fractional part, is negative, or is 2^53 or more (where the
  /// stored double no longer pins down the integer that was written).
  uint64_t AsUint() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::map<std::string, JsonValue>& AsObject() const;

  /// Object member access; throws std::runtime_error when absent or when
  /// this is not an object.
  const JsonValue& At(const std::string& key) const;

  /// True iff this is an object containing `key`.
  bool Has(const std::string& key) const;

  /// Mutable builders (used by tests and config emitters).
  std::vector<JsonValue>& MutableArray();
  std::map<std::string, JsonValue>& MutableObject();

  /// Keys of an object, sorted (for strict unknown-key validation).
  std::vector<std::string> Keys() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document; trailing non-whitespace is an error. Throws
/// std::runtime_error with a byte-offset-annotated message on syntax
/// errors. Supports standard escapes (\" \\ \/ \b \f \n \r \t and \uXXXX
/// for code points up to U+FFFF, encoded as UTF-8).
JsonValue ParseJson(std::string_view text);

/// Serializes a document back to JSON text. `indent` > 0 pretty-prints
/// with that many spaces per nesting level; 0 emits one compact line.
/// Integral numbers below 2^53 print without a fractional part (so counter
/// values round-trip digit-for-digit); strings escape control characters,
/// quotes, and backslashes. Object keys come out in sorted order (the
/// underlying map), making output byte-stable for a given document.
std::string DumpJson(const JsonValue& value, int indent = 0);

/// DumpJson straight to a file, atomically: the document is written to
/// "<path>.tmp" and renamed into place, so a concurrent reader (or a kill
/// mid-write) only ever sees the previous complete document or the new
/// one. Throws std::runtime_error when the file cannot be written.
void WriteJsonFile(const std::string& path, const JsonValue& value,
                   int indent = 2);

/// Reads and parses a JSON file; throws std::runtime_error when the file
/// cannot be read.
JsonValue ParseJsonFile(const std::string& path);

}  // namespace mto
