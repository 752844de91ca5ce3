// Minimal hardened JSON parser for untrusted input (no dependencies).
//
// Built for the serve daemon's request codec: every byte arriving on the
// socket is hostile until proven otherwise, so the parser is strict and
// bounded rather than fast or featureful.
//
//   * strict grammar: one complete JSON value, nothing trailing; objects
//     reject duplicate keys (a smuggling vector — "which value wins" must
//     never be a question);
//   * bounded: nesting depth is capped (kMaxDepth) so a recursive descent
//     cannot be driven into stack exhaustion by ":[[[[[...";
//   * exact numbers: the raw token is preserved beside the double value, so
//     a 64-bit seed round-trips through parse_u64 without losing the low
//     bits to the double mantissa;
//   * errors are values, not exceptions: parse() returns nullopt and a
//     position-stamped message — malformed input is an expected case on a
//     server, never control flow by throw.
//
// Escapes: the usual \" \\ \/ \b \f \n \r \t plus \uXXXX (encoded to UTF-8,
// surrogate pairs supported). Unescaped control characters are rejected.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fibersim::json {

class Value;

/// Object members keep insertion order (std::vector of pairs) so tests can
/// assert byte-stable round-trips; lookup is linear — serve requests have a
/// dozen keys at most.
using Members = std::vector<std::pair<std::string, Value>>;
using Items = std::vector<Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const { return bool_; }
  double as_double() const { return number_; }
  /// The number's raw source token ("18446744073709551615" stays exact).
  const std::string& raw_number() const { return string_; }
  const std::string& as_string() const { return string_; }
  const Members& members() const { return members_; }
  const Items& items() const { return items_; }

  /// Object member by key, or null when absent (or not an object).
  const Value* find(std::string_view key) const;

  /// Byte offset of this value's first character in the parsed text (0 for
  /// values built via make_*). Lets semantic validators — e.g. the processor
  /// descriptor loader — report "field X out of range (at byte N)" with the
  /// same offset convention as the parser's own grammar errors.
  std::size_t offset() const { return offset_; }
  void set_offset(std::size_t off) { offset_ = off; }

  static Value make_null();
  static Value make_bool(bool b);
  static Value make_number(double v, std::string raw);
  static Value make_string(std::string s);
  static Value make_object(Members members);
  static Value make_array(Items items);

 private:
  Kind kind_ = Kind::kNull;
  std::size_t offset_ = 0;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< string value, or a number's raw token
  Members members_;
  Items items_;
};

/// Maximum nesting depth parse() accepts.
inline constexpr int kMaxDepth = 32;

/// Parse exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed). On failure returns nullopt and, when `error` is
/// non-null, a one-line message with the byte offset.
std::optional<Value> parse(std::string_view text, std::string* error);

// ----- persisted documents -------------------------------------------------
//
// Processor descriptors and calibration measurements are config documents
// read back from disk, where a malformed file is the caller's error: these
// helpers throw fibersim::Error ("<prefix>: <what> (at byte N)") instead of
// returning error values.

/// parse(), throwing "<error_prefix>: <grammar error>" on failure.
Value parse_document(std::string_view text, const std::string& error_prefix);

/// Canonical document emitter: fixed key order, 2-space indent, one
/// "key": value per line, doubles via format_double. Kept dumb on purpose —
/// the byte-stability contract of every document it writes lives here.
class Emitter {
 public:
  /// Close the root object (trailing newline included).
  std::string finish() &&;

  void open(std::string_view key);  ///< start a nested object member
  void close();                     ///< end the innermost nested object
  void str(std::string_view key, std::string_view v);
  void num(std::string_view key, double v);
  void num(std::string_view key, int v);
  void boolean(std::string_view key, bool v);

 private:
  void line_start(std::string_view key);

  std::string out_ = "{\n";
  int indent_ = 1;
};

/// Strict object walker: typed getters that fail with the value's byte
/// offset, plus finish(), which rejects any key the schema did not read.
class Reader {
 public:
  /// `path` names `obj` inside the document ("" for the root) in messages.
  Reader(const Value& obj, std::string path, std::string error_prefix);

  void read(std::string_view key, double* out);  ///< finite number
  void read(std::string_view key, int* out);     ///< 32-bit integer
  void read(std::string_view key, bool* out);
  void read(std::string_view key, std::string* out);
  /// Read "format" and fail unless it equals `expected`.
  void require_format(std::string_view expected);

  /// Required member (typically a nested object for another Reader).
  const Value& member(std::string_view key);
  bool has(std::string_view key) const { return obj_.find(key) != nullptr; }
  /// Byte offset of the member `key` (which must be present).
  std::size_t offset(std::string_view key) const;

  /// Reject every key the schema did not consume, naming the first one.
  void finish() const;

  [[noreturn]] void fail(const std::string& what, std::size_t offset) const;

 private:
  std::string describe_path(std::string_view key) const;
  std::string describe(std::string_view key) const;

  const Value& obj_;
  std::string path_;
  std::string error_prefix_;
  std::vector<std::string> consumed_;
};

}  // namespace fibersim::json

namespace fibersim {

/// Escape `text` for embedding inside a JSON string literal (quotes not
/// added): \" \\ and every control character, so any bytes come out as
/// valid JSON.
std::string json_escape(std::string_view text);

/// Shortest decimal form of `v` that strtod parses back to the same bits.
std::string format_double(double v);

}  // namespace fibersim
