#include "json_parse.hpp"

#include <cctype>
#include <charconv>

namespace wormsim::util {

// --- Value ------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view k) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [key, val] : object) {
    if (key == k) return &val;
  }
  return nullptr;
}

const JsonValue* JsonValue::at_path(std::string_view dotted) const noexcept {
  const JsonValue* cur = this;
  while (!dotted.empty()) {
    const std::size_t dot = dotted.find('.');
    const std::string_view head =
        dot == std::string_view::npos ? dotted : dotted.substr(0, dot);
    cur = cur->find(head);
    if (!cur) return nullptr;
    if (dot == std::string_view::npos) break;
    dotted.remove_prefix(dot + 1);
  }
  return cur;
}

// --- Parser -----------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> parse() {
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* msg) {
    if (error_ && error_->empty()) {
      *error_ = std::string(msg) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return fail("invalid literal");
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::String;
        return parse_string(out.str);
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::Null;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after key");
      JsonValue val;
      if (!parse_value(val)) return false;
      out.object.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue val;
      if (!parse_value(val)) return false;
      out.array.push_back(std::move(val));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("truncated escape");
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("invalid \\u escape");
            }
            pos_ += 4;
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported —
            // the emitters never produce them).
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: return fail("invalid escape character");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      out.push_back(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    // JSON forbids leading zeros: "0" and "0.5" are fine, "01" is not.
    const std::size_t digits = start + (text_[start] == '-' ? 1 : 0);
    if (digits + 1 < pos_ && text_[digits] == '0' &&
        std::isdigit(static_cast<unsigned char>(text_[digits + 1]))) {
      return fail("leading zero in number");
    }
    double v = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_) {
      return fail("malformed number");
    }
    out.kind = JsonValue::Kind::Number;
    out.number = v;
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  if (error) error->clear();
  return Parser(text, error).parse();
}

}  // namespace wormsim::util
