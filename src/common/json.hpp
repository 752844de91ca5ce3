// JSON without dependencies: a hardened parser for untrusted input, and
// json::Emitter, the one writer behind every document fibersim emits.
//
// The parser is built for the serve daemon's request codec: every byte
// arriving on the socket is hostile until proven otherwise, so it is strict
// and bounded rather than fast or featureful.
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

#include <cstdint>
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

// ----- the writer ----------------------------------------------------------

/// The one JSON writer: every document fibersim emits is rendered here, into
/// one std::string. Each container takes its layout at the call that opens
/// it; the layout decides the separators between that container's children,
/// never the children's interiors:
///
///   kBlock    one child per line, two spaces of indent per level:
///             {\n  "k": 1,\n  "o": {\n    "x": true\n  }\n}
///   kInline   one line, ", " and ": ":  ["a", "b"]  {"key": "x", "value": 1}
///   kCompact  one line, no spaces:       {"k":1,"a":[1,2]}
///
/// Empty containers are {} and [] in every layout. Keys and strings go
/// through json_escape, so any bytes come out as valid JSON. Doubles have two
/// spellings: num() is %.17g, shortest() the shortest round-trip form
/// (format_double); both throw fibersim::Error on NaN or infinity. The byte
/// layout of every emitted document is a contract (DESIGN.md), so this class
/// stays dumb: no pretty-printing options, no number modes.
enum class Layout { kBlock, kInline, kCompact };

class Emitter {
 public:
  // Unkeyed calls write the root value or the next array item; keyed calls
  // write the next member of the innermost object. After a throw the
  // document is abandoned.
  void object(Layout layout) { begin_value(); open('{', layout); }
  void array(Layout layout) { begin_value(); open('[', layout); }
  void close();  ///< end the innermost open container
  void str(std::string_view v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void num(double v);       ///< %.17g
  void shortest(double v);  ///< shortest form strtod reads back bit-exact
  void boolean(bool v);
  void null();
  void raw(std::string_view token);  ///< already-rendered JSON, as is

  void object(std::string_view k, Layout layout) { key(k); object(layout); }
  void array(std::string_view k, Layout layout) { key(k); array(layout); }
  void str(std::string_view k, std::string_view v) { key(k); str(v); }
  void u64(std::string_view k, std::uint64_t v) { key(k); u64(v); }
  void i64(std::string_view k, std::int64_t v) { key(k); i64(v); }
  void num(std::string_view k, double v) { key(k); num(v); }
  void shortest(std::string_view k, double v) { key(k); shortest(v); }
  void boolean(std::string_view k, bool v) { key(k); boolean(v); }
  void null(std::string_view k) { key(k); null(); }
  void raw(std::string_view k, std::string_view token) { key(k); raw(token); }

  /// Close what is still open; return the document (no trailing newline).
  std::string finish() &&;

 private:
  struct Frame {
    Layout layout;
    bool object;  ///< {} rather than []
    bool empty;   ///< no child written yet
  };

  void key(std::string_view k);
  void begin_value();
  /// Separator and indent before a member's key or an array item.
  void separate();
  void open(char bracket, Layout layout);

  std::string out_;
  std::vector<Frame> open_;
  bool keyed_ = false;  ///< a key was written; its value comes next
};

// ----- persisted documents -------------------------------------------------
//
// Processor descriptors and calibration measurements are config documents
// read back from disk, where a malformed file is the caller's error: these
// helpers throw fibersim::Error ("<prefix>: <what> (at byte N)") instead of
// returning error values.

/// parse(), throwing "<error_prefix>: <grammar error>" on failure.
Value parse_document(std::string_view text, const std::string& error_prefix);

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
