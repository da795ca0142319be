// Minimal JSON support: a streaming writer, a pull reader and a small DOM.
//
// The paper's measurement clients export their records periodically to JSON
// files; `measure::Dataset` uses the writer for the same purpose.  Writing
// is streaming (no DOM) so multi-day campaign exports stay O(1) in memory.
// Reading goes through one tokenizer, `JsonReader`, which yields tokens
// without building anything: measured traces are read with it straight
// into a `measure::Dataset` (`analysis::calibrate::parse_trace`).
// `JsonValue::parse` builds a DOM on top of the same reader for
// configuration inputs such as `scenario::ScenarioSpec` files, which are
// tiny and whose validation errors name a field path
// ("period.duration_ms: expected a number").  Both report syntax errors
// with the same "line:column: message" text.
#pragma once

#include <array>
#include <cstdint>
#include <expected>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ipfs::common {

/// Streaming JSON writer with explicit begin/end nesting.
///
/// Usage:
///   JsonWriter w(stream);
///   w.begin_object();
///   w.key("peers"); w.begin_array();
///   ...
///   w.end_array();
///   w.end_object();
///
/// The writer validates nesting depth in debug builds via assertions; it is
/// the caller's responsibility to alternate key()/value in objects.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, bool pretty = false)
      : out_(out), pretty_(pretty) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(bool b);
  void value(std::int64_t n);
  void value(std::uint64_t n);
  void value(int n) { value(static_cast<std::int64_t>(n)); }
  void value(std::uint32_t n) { value(static_cast<std::uint64_t>(n)); }
  void value(double d);
  void null();

  /// Convenience: key + scalar value in one call.
  template <typename T>
  void field(std::string_view name, T&& v) {
    key(name);
    value(std::forward<T>(v));
  }

  /// Escape a string per RFC 8259 (quotes not included).
  [[nodiscard]] static std::string escape(std::string_view text);

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  void separator();
  void newline_indent();

  std::ostream& out_;
  bool pretty_ = false;
  bool need_comma_ = false;
  bool after_key_ = false;
  std::vector<Scope> scopes_;
};

/// Pull tokenizer over one JSON text (RFC 8259 subset: no \uXXXX surrogate
/// pairs outside the BMP; at most 128 nested levels hold values).
///
/// Usage:
///   JsonReader reader(text);
///   for (auto token = reader.next(); token != JsonReader::Token::kEnd;
///        token = reader.next()) {
///     if (token == JsonReader::Token::kError) return reader.error();
///     ...
///   }
///
/// Object members arrive as a `kKey` token followed by the tokens of the
/// value.  `string()` is the unescaped text of the current key or string
/// (or the lexeme of a number): a view into the input when the text holds
/// no escape, else into a buffer the next `next()` reuses.  Syntax errors
/// read "line:column: message", counted from the first byte of the text;
/// after one, `next()` keeps returning `kError`.
class JsonReader {
 public:
  enum class Token : std::uint8_t {
    kBeginObject,
    kEndObject,
    kBeginArray,
    kEndArray,
    kKey,
    kString,
    kNumber,
    kTrue,
    kFalse,
    kNull,
    kEnd,    ///< the document is complete
    kError,  ///< see `error()`
  };

  /// How much of the text is the document.
  enum class Extent : std::uint8_t {
    /// The whole text: anything but whitespace after the document is an
    /// error ("trailing content after document").
    kWhole,
    /// The first document of a stream of them (a `measure::JsonExportSink`
    /// file holds the dataset document, then the sample documents).
    /// Reading stops where a root object or array closes; a scalar root
    /// must still end the text.  A `\u` escape whose four digits run past
    /// the bracket that would close the root, were that escape one byte
    /// long, reads as truncated, as when the document was cut out of the
    /// stream by balancing brackets.
    kFirst,
  };

  explicit JsonReader(std::string_view text, Extent extent = Extent::kWhole)
      : text_(text), extent_(extent) {}

  JsonReader(const JsonReader&) = delete;
  JsonReader& operator=(const JsonReader&) = delete;

  [[nodiscard]] Token next();

  /// Consume the rest of the value whose first token `token` was (nothing
  /// more for a scalar).  False on a syntax error.
  bool skip(Token token);

  /// The current key or string, unescaped, or the lexeme of a number.
  [[nodiscard]] std::string_view string() const noexcept { return string_; }

  /// The current number as an `int64`: engaged only when its lexeme is an
  /// integer (no '.' or exponent) within range.
  [[nodiscard]] std::optional<std::int64_t> int64() const noexcept;
  /// The current number as a `uint64`: engaged only when its lexeme is an
  /// integer without a '-' and within range.
  [[nodiscard]] std::optional<std::uint64_t> uint64() const noexcept {
    if (!integral_ || negative_) return std::nullopt;
    return magnitude_;
  }
  /// The current number as the nearest double (as `strtod`).
  [[nodiscard]] double number() const;

  /// "line:column: message" after `kError`.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  static constexpr int kMaxDepth = 128;

  enum class Expect : std::uint8_t {
    kValue,
    kFirstMember,  ///< just after '{' or '['
    kAfterValue,
    kEnd,
    kError,
  };

  Token fail(std::string_view message);
  Token read_value();
  Token read_key();
  Token read_number();
  Token after_value();
  Token close(Token token);
  bool read_string();
  [[nodiscard]] bool root_closes_before(std::size_t from, std::size_t end) const;
  void skip_whitespace() noexcept;

  std::string_view text_;
  Extent extent_;
  std::size_t pos_ = 0;
  Expect expect_ = Expect::kValue;
  int depth_ = 0;
  /// `true` for an object at each open level (at most kMaxDepth + 1).
  std::array<bool, kMaxDepth + 1> in_object_{};
  std::string_view string_;
  std::string buffer_;
  bool integral_ = false;
  bool negative_ = false;
  std::uint64_t magnitude_ = 0;
  std::string error_;
};

/// A parsed JSON document (RFC 8259 subset: no duplicate-key policy beyond
/// first-wins, no \uXXXX surrogate pairs outside the BMP).
///
/// Numbers remember whether their lexical form was integral so that 64-bit
/// seeds survive a parse → write round trip without drifting through a
/// double.  Object member order is preserved (needed for byte-exact
/// re-serialisation of scenario files).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;  // null

  /// Parse a complete document.  Errors carry a 1-based line:column prefix,
  /// e.g. "3:17: expected ':' after object key".
  [[nodiscard]] static std::expected<JsonValue, std::string> parse(
      std::string_view text);

  [[nodiscard]] Type type() const noexcept;
  [[nodiscard]] std::string_view type_name() const noexcept;

  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::kObject; }

  // Typed accessors; callers check the type first (asserted in debug).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Integral view of a number: engaged only when the lexical form was an
  /// integer that fits the destination type exactly.
  [[nodiscard]] std::optional<std::int64_t> as_int64() const;
  [[nodiscard]] std::optional<std::uint64_t> as_uint64() const;
  /// True when the number was written without '.' or exponent.
  [[nodiscard]] bool is_integer() const noexcept;

  /// Object member lookup (first match), nullptr when absent or not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  // Construction helpers (tests and programmatic building).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_integer(std::int64_t n);
  static JsonValue make_unsigned(std::uint64_t n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array a);
  static JsonValue make_object(Object o);

 private:
  struct Number {
    double value = 0.0;
    bool integral = false;        ///< lexical form had no '.'/exponent
    bool negative = false;        ///< lexical form began with '-'
    std::uint64_t magnitude = 0;  ///< |value| when integral and in range
  };

  std::variant<std::monostate, bool, Number, std::string, Array, Object> node_;
};

}  // namespace ipfs::common
