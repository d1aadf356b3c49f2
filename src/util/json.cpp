#include "util/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace wormsim::util {

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows "key":
  }
  if (!first_.empty()) {
    if (!first_.back()) *out_ << ',';
    first_.back() = false;
  }
}

void JsonWriter::begin_object() {
  separate();
  *out_ << '{';
  first_.push_back(true);
}

void JsonWriter::end_object() {
  assert(!first_.empty());
  first_.pop_back();
  *out_ << '}';
}

void JsonWriter::begin_array() {
  separate();
  *out_ << '[';
  first_.push_back(true);
}

void JsonWriter::end_array() {
  assert(!first_.empty());
  first_.pop_back();
  *out_ << ']';
}

void JsonWriter::key(std::string_view k) {
  separate();
  *out_ << '"' << escape(k) << "\":";
  after_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  separate();
  *out_ << '"' << escape(v) << '"';
}

void JsonWriter::value(bool v) {
  separate();
  *out_ << (v ? "true" : "false");
}

void JsonWriter::value(double v) {
  separate();
  *out_ << format_double(v);
}

void JsonWriter::value(std::int64_t v) {
  separate();
  *out_ << v;
}

void JsonWriter::value(std::uint64_t v) {
  separate();
  *out_ << v;
}

void JsonWriter::value_null() {
  separate();
  *out_ << "null";
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonWriter::format_double(double v) {
  // JSON has no NaN/Inf; map them to null so files always parse.
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string s(buf, res.ptr);
  // to_chars shortest form may be integral ("3"); that is still a valid
  // JSON number, so keep it as-is.
  return s;
}

}  // namespace wormsim::util
