// Strict recursive-descent JSON reader for the test suites: they parse
// the telemetry and trace files the simulator emits and check them
// against their schema. No comments, no NaN/Inf, UTF-8 passed through
// untouched; \u escapes decode the BMP only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wormsim::util {

/// Parsed JSON value (object keys preserve insertion order).
struct JsonValue {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return kind == Kind::Null; }
  bool is_bool() const noexcept { return kind == Kind::Bool; }
  bool is_number() const noexcept { return kind == Kind::Number; }
  bool is_string() const noexcept { return kind == Kind::String; }
  bool is_array() const noexcept { return kind == Kind::Array; }
  bool is_object() const noexcept { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// Dotted-path lookup through nested objects, e.g. "perf.cycles_per_second".
  const JsonValue* at_path(std::string_view dotted) const noexcept;
};

/// Strict parse of a complete JSON document (trailing whitespace
/// allowed, trailing garbage is an error). On failure returns nullopt
/// and, if `error` is non-null, a message with the byte offset.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace wormsim::util
