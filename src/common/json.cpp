#include "common/json.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/error.hpp"
#include "common/parse_num.hpp"
#include "common/string_util.hpp"

namespace fibersim::json {

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value Value::make_null() { return Value{}; }

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double d, std::string raw) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  v.string_ = std::move(raw);
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_object(Members members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

Value Value::make_array(Items items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

namespace {

/// Recursive-descent parser over an immutable view. Every method either
/// advances pos_ past a complete construct or records an error; nothing
/// throws, nothing reads past size().
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    skip_ws();
    std::optional<Value> v = parse_value(0);
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after JSON value");
        v.reset();
      }
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + strfmt(" (at byte %zu)", pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  std::optional<Value> parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const std::size_t start = pos_;
    std::optional<Value> v;
    switch (text_[pos_]) {
      case 'n':
        if (!literal("null")) return std::nullopt;
        v = Value::make_null();
        break;
      case 't':
        if (!literal("true")) return std::nullopt;
        v = Value::make_bool(true);
        break;
      case 'f':
        if (!literal("false")) return std::nullopt;
        v = Value::make_bool(false);
        break;
      case '"': {
        std::string s;
        if (!parse_string(&s)) return std::nullopt;
        v = Value::make_string(std::move(s));
        break;
      }
      case '{':
        v = parse_object(depth);
        break;
      case '[':
        v = parse_array(depth);
        break;
      default:
        v = parse_number();
        break;
    }
    // Stamp where the value began so semantic validators downstream can
    // report byte offsets with the same convention as grammar errors.
    if (v) v->set_offset(start);
    return v;
  }

  std::optional<Value> parse_object(int depth) {
    ++pos_;  // '{'
    Members members;
    skip_ws();
    if (eat('}')) return Value::make_object(std::move(members));
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key string");
        return std::nullopt;
      }
      std::string key;
      if (!parse_string(&key)) return std::nullopt;
      for (const auto& [k, v] : members) {
        if (k == key) {
          fail("duplicate object key '" + key + "'");
          return std::nullopt;
        }
      }
      skip_ws();
      if (!eat(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      skip_ws();
      std::optional<Value> v = parse_value(depth + 1);
      if (!v) return std::nullopt;
      members.emplace_back(std::move(key), std::move(*v));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return Value::make_object(std::move(members));
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array(int depth) {
    ++pos_;  // '['
    Items items;
    skip_ws();
    if (eat(']')) return Value::make_array(std::move(items));
    while (true) {
      skip_ws();
      std::optional<Value> v = parse_value(depth + 1);
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return Value::make_array(std::move(items));
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == int_start) {
      pos_ = start;
      fail("invalid value");
      return std::nullopt;
    }
    // JSON forbids leading zeros ("01"); they hide octal-intent mistakes.
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      pos_ = start;
      fail("number has a leading zero");
      return std::nullopt;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t frac_start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == frac_start) {
        fail("digits required after decimal point");
        return std::nullopt;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp_start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == exp_start) {
        fail("digits required in exponent");
        return std::nullopt;
      }
    }
    std::string raw(text_.substr(start, pos_ - start));
    errno = 0;
    const double v = std::strtod(raw.c_str(), nullptr);
    if (!std::isfinite(v)) {
      fail("number out of double range");
      return std::nullopt;
    }
    return Value::make_number(v, std::move(raw));
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote (caller checked)
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parse_hex4(std::uint32_t* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  static void append_utf8(std::uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

// ----- the writer ----------------------------------------------------------

namespace {

/// Append `text` with \" \\ and every control character escaped (the bytes
/// json_escape returns), copying clean runs whole.
void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(text.data() + run, text.size() - run);
}

template <typename... Format>
void append_chars(std::string& out, auto v, Format... format) {
  char buf[32];  // "-1.2345678901234567e-308" and any 64-bit integer fit
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, format...);
  FS_ASSERT(r.ec == std::errc(), "json::Emitter: number buffer too small");
  out.append(buf, r.ptr);
}

void require_finite(double v) {
  FS_REQUIRE(std::isfinite(v), "cannot serialise a non-finite number");
}

}  // namespace

void Emitter::close() {
  FS_REQUIRE(!open_.empty() && !keyed_,
             "json::Emitter: close() without an open container");
  const Frame frame = open_.back();
  open_.pop_back();
  if (frame.layout == Layout::kBlock && !frame.empty) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  out_ += frame.object ? '}' : ']';
}

void Emitter::str(std::string_view v) {
  begin_value();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
}

void Emitter::u64(std::uint64_t v) { begin_value(); append_chars(out_, v); }

void Emitter::i64(std::int64_t v) { begin_value(); append_chars(out_, v); }

void Emitter::num(double v) {
  require_finite(v);
  begin_value();
  append_chars(out_, v, std::chars_format::general, 17);
}

void Emitter::shortest(double v) {
  require_finite(v);
  begin_value();
  out_ += format_double(v);
}

void Emitter::boolean(bool v) { begin_value(); out_ += v ? "true" : "false"; }

void Emitter::null() { begin_value(); out_ += "null"; }

void Emitter::raw(std::string_view token) { begin_value(); out_ += token; }

std::string Emitter::finish() && {
  while (!open_.empty()) close();
  FS_REQUIRE(!out_.empty(), "json::Emitter: empty document");
  return std::move(out_);
}

void Emitter::key(std::string_view k) {
  FS_REQUIRE(!open_.empty() && open_.back().object && !keyed_,
             "json::Emitter: a key outside an object");
  separate();
  out_ += '"';
  append_escaped(out_, k);
  out_ += open_.back().layout == Layout::kCompact ? "\":" : "\": ";
  keyed_ = true;
}

void Emitter::begin_value() {
  if (keyed_) {
    keyed_ = false;
  } else if (open_.empty()) {
    FS_REQUIRE(out_.empty(), "json::Emitter: a second root value");
  } else {
    FS_REQUIRE(!open_.back().object, "json::Emitter: a member without a key");
    separate();
  }
}

void Emitter::separate() {
  Frame& frame = open_.back();
  if (!frame.empty) out_ += frame.layout == Layout::kInline ? ", " : ",";
  if (frame.layout == Layout::kBlock) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  frame.empty = false;
}

void Emitter::open(char bracket, Layout layout) {
  out_ += bracket;
  open_.push_back({layout, bracket == '{', true});
}

// ----- persisted documents -------------------------------------------------

Value parse_document(std::string_view text, const std::string& error_prefix) {
  std::string err;
  std::optional<Value> root = parse(text, &err);
  if (!root) throw Error(error_prefix + ": " + err);
  return std::move(*root);
}

Reader::Reader(const Value& obj, std::string path, std::string error_prefix)
    : obj_(obj), path_(std::move(path)), error_prefix_(std::move(error_prefix)) {
  if (!obj_.is_object()) {
    fail(path_.empty() ? "top level must be an object"
                       : "'" + path_ + "' must be an object",
         obj_.offset());
  }
}

void Reader::read(std::string_view key, double* out) {
  const Value& v = member(key);
  if (!v.is_number()) fail(describe(key) + " must be a number", v.offset());
  const std::optional<double> d = parse_f64(v.raw_number());
  if (!d) fail(describe(key) + " is not a finite double", v.offset());
  *out = *d;
}

void Reader::read(std::string_view key, int* out) {
  const Value& v = member(key);
  if (!v.is_number()) fail(describe(key) + " must be a number", v.offset());
  const std::optional<int> i = parse_i32(v.raw_number());
  if (!i) fail(describe(key) + " must be a 32-bit integer", v.offset());
  *out = *i;
}

void Reader::read(std::string_view key, bool* out) {
  const Value& v = member(key);
  if (!v.is_bool()) fail(describe(key) + " must be true or false", v.offset());
  *out = v.as_bool();
}

void Reader::read(std::string_view key, std::string* out) {
  const Value& v = member(key);
  if (!v.is_string()) fail(describe(key) + " must be a string", v.offset());
  *out = v.as_string();
}

void Reader::require_format(std::string_view expected) {
  std::string format;
  read("format", &format);
  if (format != expected) {
    fail("unsupported format '" + format + "' (expected '" +
             std::string(expected) + "')",
         offset("format"));
  }
}

const Value& Reader::member(std::string_view key) {
  const Value* v = obj_.find(key);
  if (v == nullptr) {
    fail("missing required field '" + describe_path(key) + "'", obj_.offset());
  }
  consumed_.emplace_back(key);
  return *v;
}

std::size_t Reader::offset(std::string_view key) const {
  return obj_.find(key)->offset();
}

void Reader::finish() const {
  for (const auto& [k, v] : obj_.members()) {
    if (std::find(consumed_.begin(), consumed_.end(), k) == consumed_.end()) {
      fail("unknown key '" + describe_path(k) + "'", v.offset());
    }
  }
}

void Reader::fail(const std::string& what, std::size_t offset) const {
  throw Error(error_prefix_ + ": " + what + strfmt(" (at byte %zu)", offset));
}

std::string Reader::describe_path(std::string_view key) const {
  return path_.empty() ? std::string(key) : path_ + "." + std::string(key);
}

std::string Reader::describe(std::string_view key) const {
  return "field '" + describe_path(key) + "'";
}

}  // namespace fibersim::json

namespace fibersim {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  json::append_escaped(out, text);
  return out;
}

std::string format_double(double v) {
  // Shortest %.{p}g form whose strtod round-trip is bit-exact; 17 significant
  // digits always suffice for IEEE-754 binary64.
  for (int prec = 1; prec <= 17; ++prec) {
    std::string s = strfmt("%.*g", prec, v);
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return strfmt("%.17g", v);
}

}  // namespace fibersim
