#include "common/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ipfs::common {

void JsonWriter::begin_object() {
  separator();
  out_ << '{';
  scopes_.push_back(Scope::kObject);
  need_comma_ = false;
}

void JsonWriter::end_object() {
  assert(!scopes_.empty() && scopes_.back() == Scope::kObject);
  scopes_.pop_back();
  if (pretty_) newline_indent();
  out_ << '}';
  need_comma_ = true;
}

void JsonWriter::begin_array() {
  separator();
  out_ << '[';
  scopes_.push_back(Scope::kArray);
  need_comma_ = false;
}

void JsonWriter::end_array() {
  assert(!scopes_.empty() && scopes_.back() == Scope::kArray);
  scopes_.pop_back();
  if (pretty_) newline_indent();
  out_ << ']';
  need_comma_ = true;
}

void JsonWriter::key(std::string_view name) {
  assert(!scopes_.empty() && scopes_.back() == Scope::kObject);
  if (need_comma_) out_ << ',';
  if (pretty_) newline_indent();
  out_ << '"' << escape(name) << "\":";
  if (pretty_) out_ << ' ';
  need_comma_ = false;
  after_key_ = true;
}

void JsonWriter::separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_) out_ << ',';
  if (pretty_ && !scopes_.empty() && scopes_.back() == Scope::kArray) newline_indent();
}

void JsonWriter::newline_indent() {
  out_ << '\n';
  for (std::size_t i = 0; i < scopes_.size(); ++i) out_ << "  ";
}

void JsonWriter::value(std::string_view text) {
  separator();
  out_ << '"' << escape(text) << '"';
  need_comma_ = true;
}

void JsonWriter::value(bool b) {
  separator();
  out_ << (b ? "true" : "false");
  need_comma_ = true;
}

void JsonWriter::value(std::int64_t n) {
  separator();
  out_ << n;
  need_comma_ = true;
}

void JsonWriter::value(std::uint64_t n) {
  separator();
  out_ << n;
  need_comma_ = true;
}

void JsonWriter::value(double d) {
  separator();
  if (std::isfinite(d)) {
    // Shortest decimal form that parses back to exactly `d`, so that
    // write → parse → write is the identity (scenario files depend on it).
    char buffer[32];
    for (int precision = 6; precision <= 17; ++precision) {
      std::snprintf(buffer, sizeof(buffer), "%.*g", precision, d);
      if (std::strtod(buffer, nullptr) == d) break;
    }
    out_ << buffer;
  } else {
    out_ << "null";  // JSON has no NaN/Inf
  }
  need_comma_ = true;
}

void JsonWriter::null() {
  separator();
  out_ << "null";
  need_comma_ = true;
}

// ---- JsonReader -------------------------------------------------------------

JsonReader::Token JsonReader::fail(std::string_view message) {
  std::size_t line = 1;
  std::size_t column = 1;
  for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
    if (text_[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  error_ = std::to_string(line) + ":" + std::to_string(column) + ": ";
  error_ += message;
  expect_ = Expect::kError;
  return Token::kError;
}

void JsonReader::skip_whitespace() noexcept {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

JsonReader::Token JsonReader::next() {
  switch (expect_) {
    case Expect::kValue: return read_value();
    case Expect::kFirstMember: {
      const bool object = in_object_[depth_ - 1];
      skip_whitespace();
      if (pos_ < text_.size() && text_[pos_] == (object ? '}' : ']')) {
        ++pos_;
        return close(object ? Token::kEndObject : Token::kEndArray);
      }
      return object ? read_key() : read_value();
    }
    case Expect::kAfterValue: return after_value();
    case Expect::kEnd: return Token::kEnd;
    case Expect::kError: break;
  }
  return Token::kError;
}

bool JsonReader::skip(Token token) {
  int open = 0;
  while (true) {
    switch (token) {
      case Token::kBeginObject:
      case Token::kBeginArray: ++open; break;
      case Token::kEndObject:
      case Token::kEndArray: --open; break;
      case Token::kError: return false;
      default: break;
    }
    if (open == 0) return true;
    token = next();
  }
}

JsonReader::Token JsonReader::read_value() {
  skip_whitespace();
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  if (depth_ > kMaxDepth) return fail("nesting deeper than 128 levels");
  const auto literal = [this](std::string_view word, Token token) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal (expected '" + std::string(word) + "')");
    }
    pos_ += word.size();
    expect_ = Expect::kAfterValue;
    return token;
  };
  switch (text_[pos_]) {
    case '{':
      ++pos_;
      in_object_[depth_++] = true;
      expect_ = Expect::kFirstMember;
      return Token::kBeginObject;
    case '[':
      ++pos_;
      in_object_[depth_++] = false;
      expect_ = Expect::kFirstMember;
      return Token::kBeginArray;
    case '"':
      if (!read_string()) return Token::kError;
      expect_ = Expect::kAfterValue;
      return Token::kString;
    case 't': return literal("true", Token::kTrue);
    case 'f': return literal("false", Token::kFalse);
    case 'n': return literal("null", Token::kNull);
    default: return read_number();
  }
}

JsonReader::Token JsonReader::read_key() {
  skip_whitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return fail("expected '\"' to start object key");
  }
  if (!read_string()) return Token::kError;
  skip_whitespace();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return fail("expected ':' after object key");
  }
  ++pos_;
  expect_ = Expect::kValue;
  return Token::kKey;
}

JsonReader::Token JsonReader::after_value() {
  skip_whitespace();
  if (depth_ == 0) {
    if (pos_ != text_.size()) return fail("trailing content after document");
    expect_ = Expect::kEnd;
    return Token::kEnd;
  }
  const bool object = in_object_[depth_ - 1];
  if (pos_ >= text_.size()) {
    return fail(object ? "unterminated object" : "unterminated array");
  }
  const char c = text_[pos_];
  if (c == ',') {
    ++pos_;
    return object ? read_key() : read_value();
  }
  if (c == (object ? '}' : ']')) {
    ++pos_;
    return close(object ? Token::kEndObject : Token::kEndArray);
  }
  return fail(object ? "expected ',' or '}' in object"
                     : "expected ',' or ']' in array");
}

JsonReader::Token JsonReader::close(Token token) {
  --depth_;
  expect_ = depth_ == 0 && extent_ == Extent::kFirst ? Expect::kEnd
                                                     : Expect::kAfterValue;
  return token;
}

bool JsonReader::read_string() {
  const auto error = [this](std::string_view message) {
    fail(message);
    return false;
  };
  const std::size_t start = ++pos_;  // past the opening quote
  bool unescaped = false;            // the text so far is in buffer_
  while (true) {
    // The run up to the next quote, escape or control character, in one
    // piece.
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    if (unescaped) buffer_.append(text_.substr(run, pos_ - run));
    if (pos_ >= text_.size()) return error("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') {
      string_ = unescaped ? std::string_view(buffer_)
                          : text_.substr(start, pos_ - 1 - start);
      return true;
    }
    if (c != '\\') {
      --pos_;
      return error("unescaped control character in string");
    }
    if (!unescaped) {
      buffer_.assign(text_.substr(start, pos_ - 1 - start));
      unescaped = true;
    }
    if (pos_ >= text_.size()) return error("unterminated escape sequence");
    const char escape = text_[pos_++];
    switch (escape) {
      case '"': buffer_.push_back('"'); break;
      case '\\': buffer_.push_back('\\'); break;
      case '/': buffer_.push_back('/'); break;
      case 'b': buffer_.push_back('\b'); break;
      case 'f': buffer_.push_back('\f'); break;
      case 'n': buffer_.push_back('\n'); break;
      case 'r': buffer_.push_back('\r'); break;
      case 't': buffer_.push_back('\t'); break;
      case 'u': {
        const std::size_t digits = pos_;
        if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else if (root_closes_before(digits, digits + 4)) {
            pos_ = digits;
            return error("truncated \\u escape");
          } else {
            return error("invalid hex digit in \\u escape");
          }
        }
        // UTF-8 encode the BMP code point (surrogate pairs unsupported —
        // scenario files are ASCII in practice).
        if (code < 0x80) {
          buffer_.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          buffer_.push_back(static_cast<char>(0xc0 | (code >> 6)));
          buffer_.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
          buffer_.push_back(static_cast<char>(0xe0 | (code >> 12)));
          buffer_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
          buffer_.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        break;
      }
      default: return error("invalid escape character");
    }
  }
}

bool JsonReader::root_closes_before(std::size_t from, std::size_t end) const {
  if (extent_ != Extent::kFirst) return false;
  // Balance brackets from `from`, inside a string, as a splitter that
  // takes every escape for one byte would; it ends the first document at
  // the bracket that brings the depth back to 0.
  int depth = depth_;
  bool in_string = true;
  bool escaped = false;
  for (std::size_t i = from; i + 1 < end; ++i) {
    const char c = text_[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return true;
    }
  }
  return false;
}

JsonReader::Token JsonReader::read_number() {
  const std::size_t start = pos_;
  const auto digit = [this] {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  };
  bool integral = true;
  negative_ = text_[pos_] == '-';
  if (negative_) ++pos_;
  if (!digit()) {
    pos_ = start;
    return fail("invalid value");
  }
  const std::size_t int_part = pos_;
  while (digit()) ++pos_;
  if (text_[int_part] == '0' && pos_ - int_part > 1) {
    return fail("leading zeros are not allowed");  // RFC 8259
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    integral = false;
    ++pos_;
    if (!digit()) return fail("digit expected after decimal point");
    while (digit()) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    if (!digit()) return fail("digit expected in exponent");
    while (digit()) ++pos_;
  }
  // An integer beyond 64 bits keeps only its double value.
  integral_ = integral && std::from_chars(text_.data() + int_part,
                                          text_.data() + pos_, magnitude_)
                                  .ec == std::errc();
  string_ = text_.substr(start, pos_ - start);
  expect_ = Expect::kAfterValue;
  return Token::kNumber;
}

std::optional<std::int64_t> JsonReader::int64() const noexcept {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (!integral_ || magnitude_ > kMax + (negative_ ? 1 : 0)) return std::nullopt;
  if (!negative_) return static_cast<std::int64_t>(magnitude_);
  return magnitude_ == kMax + 1 ? std::numeric_limits<std::int64_t>::min()
                                : -static_cast<std::int64_t>(magnitude_);
}

double JsonReader::number() const {
  const std::string lexeme(string_);
  return std::strtod(lexeme.c_str(), nullptr);
}

// ---- JsonValue --------------------------------------------------------------

namespace {

using Token = JsonReader::Token;

/// Build the value whose first token `token` is; false on a syntax error
/// (the reader holds it).
bool build(JsonReader& reader, Token token, JsonValue& out) {
  switch (token) {
    case Token::kBeginObject: {
      JsonValue::Object members;
      while ((token = reader.next()) == Token::kKey) {
        std::string key(reader.string());
        JsonValue value;
        if (!build(reader, reader.next(), value)) return false;
        members.emplace_back(std::move(key), std::move(value));
      }
      out = JsonValue::make_object(std::move(members));
      return token == Token::kEndObject;
    }
    case Token::kBeginArray: {
      JsonValue::Array elements;
      while ((token = reader.next()) != Token::kEndArray) {
        JsonValue value;
        if (!build(reader, token, value)) return false;
        elements.push_back(std::move(value));
      }
      out = JsonValue::make_array(std::move(elements));
      return true;
    }
    case Token::kString:
      out = JsonValue::make_string(std::string(reader.string()));
      return true;
    case Token::kNumber:
      if (const auto natural = reader.uint64()) {
        out = JsonValue::make_unsigned(*natural);
      } else if (const auto integer = reader.int64()) {
        out = JsonValue::make_integer(*integer);
      } else {
        out = JsonValue::make_number(reader.number());
      }
      return true;
    case Token::kTrue: out = JsonValue::make_bool(true); return true;
    case Token::kFalse: out = JsonValue::make_bool(false); return true;
    case Token::kNull: out = JsonValue(); return true;
    default: return false;  // kError (kEnd and closing tokens never start a value)
  }
}

}  // namespace

JsonValue::Type JsonValue::type() const noexcept {
  switch (node_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kNumber;
    case 3: return Type::kString;
    case 4: return Type::kArray;
    default: return Type::kObject;
  }
}

std::string_view JsonValue::type_name() const noexcept {
  switch (type()) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

bool JsonValue::as_bool() const {
  assert(is_bool());
  return std::get<bool>(node_);
}

double JsonValue::as_double() const {
  assert(is_number());
  return std::get<Number>(node_).value;
}

const std::string& JsonValue::as_string() const {
  assert(is_string());
  return std::get<std::string>(node_);
}

const JsonValue::Array& JsonValue::as_array() const {
  assert(is_array());
  return std::get<Array>(node_);
}

const JsonValue::Object& JsonValue::as_object() const {
  assert(is_object());
  return std::get<Object>(node_);
}

bool JsonValue::is_integer() const noexcept {
  return is_number() && std::get<Number>(node_).integral;
}

std::optional<std::int64_t> JsonValue::as_int64() const {
  if (!is_integer()) return std::nullopt;
  const Number& number = std::get<Number>(node_);
  if (number.negative) {
    const auto limit = static_cast<std::uint64_t>(
                           std::numeric_limits<std::int64_t>::max()) +
                       1;
    if (number.magnitude > limit) return std::nullopt;
    if (number.magnitude == limit) return std::numeric_limits<std::int64_t>::min();
    return -static_cast<std::int64_t>(number.magnitude);
  }
  if (number.magnitude >
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(number.magnitude);
}

std::optional<std::uint64_t> JsonValue::as_uint64() const {
  if (!is_integer()) return std::nullopt;
  const Number& number = std::get<Number>(node_);
  if (number.negative && number.magnitude != 0) return std::nullopt;
  return number.magnitude;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const Member& member : std::get<Object>(node_)) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue value;
  value.node_ = b;
  return value;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue value;
  Number number;
  number.value = d;
  value.node_ = number;
  return value;
}

JsonValue JsonValue::make_integer(std::int64_t n) {
  JsonValue value;
  Number number;
  number.value = static_cast<double>(n);
  number.integral = true;
  number.negative = n < 0;
  number.magnitude = n < 0 ? ~static_cast<std::uint64_t>(n) + 1
                           : static_cast<std::uint64_t>(n);
  value.node_ = number;
  return value;
}

JsonValue JsonValue::make_unsigned(std::uint64_t n) {
  JsonValue value;
  Number number;
  number.value = static_cast<double>(n);
  number.integral = true;
  number.negative = false;
  number.magnitude = n;
  value.node_ = number;
  return value;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue value;
  value.node_ = std::move(s);
  return value;
}

JsonValue JsonValue::make_array(Array a) {
  JsonValue value;
  value.node_ = std::move(a);
  return value;
}

JsonValue JsonValue::make_object(Object o) {
  JsonValue value;
  value.node_ = std::move(o);
  return value;
}

std::expected<JsonValue, std::string> JsonValue::parse(std::string_view text) {
  JsonReader reader(text);
  JsonValue root;
  if (!build(reader, reader.next(), root) || reader.next() != Token::kEnd) {
    return std::unexpected(reader.error());
  }
  return root;
}

std::string JsonWriter::escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace ipfs::common
