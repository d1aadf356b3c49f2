// Minimal JSON emission for machine-readable telemetry.
//
// The writer streams structurally-checked JSON (object/array nesting is
// tracked, commas are inserted automatically) so exporters cannot emit
// malformed records. It does not aim to be a general-purpose library:
// no NaN/Inf (mapped to null), UTF-8 passed through untouched.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace wormsim::util {

/// Streaming JSON writer. Usage:
///   JsonWriter w(os);
///   w.begin_object();
///   w.field("schema", "wormsim.telemetry/1");
///   w.key("result"); w.begin_object(); ... w.end_object();
///   w.end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(&out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emit an object key; must be followed by exactly one value.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(bool v);
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value_null();

  /// key + value in one call.
  template <typename T>
  void field(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// JSON string escaping (quotes not included).
  static std::string escape(std::string_view s);
  /// Round-trippable number formatting (shortest form, no locale).
  static std::string format_double(double v);

 private:
  void separate();  // comma/newline management before a new element

  std::ostream* out_;
  // One entry per open container: true while it has no elements yet.
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace wormsim::util
