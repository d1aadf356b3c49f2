#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "../support/json_parse.hpp"

namespace wormsim::util {
namespace {

std::string written(const std::function<void(JsonWriter&)>& body) {
  std::ostringstream os;
  JsonWriter w(os);
  body(w);
  return os.str();
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(written([](JsonWriter& w) {
              w.begin_object();
              w.end_object();
            }),
            "{}");
  EXPECT_EQ(written([](JsonWriter& w) {
              w.begin_array();
              w.end_array();
            }),
            "[]");
}

TEST(JsonWriter, ObjectFieldsGetCommas) {
  const std::string out = written([](JsonWriter& w) {
    w.begin_object();
    w.field("a", 1);
    w.field("b", "x");
    w.field("c", true);
    w.key("d");
    w.value_null();
    w.end_object();
  });
  EXPECT_EQ(out, R"({"a":1,"b":"x","c":true,"d":null})");
}

TEST(JsonWriter, NestedStructures) {
  const std::string out = written([](JsonWriter& w) {
    w.begin_object();
    w.key("pts");
    w.begin_array();
    w.value(std::int64_t{1});
    w.begin_object();
    w.field("k", 2u);
    w.end_object();
    w.end_array();
    w.end_object();
  });
  EXPECT_EQ(out, R"({"pts":[1,{"k":2}]})");
}

TEST(JsonWriter, NeverEmitsNewlines) {
  // JSONL depends on records being single physical lines.
  const std::string out = written([](JsonWriter& w) {
    w.begin_object();
    w.field("s", "line1\nline2");
    w.key("arr");
    w.begin_array();
    for (int i = 0; i < 20; ++i) w.value(i);
    w.end_array();
    w.end_object();
  });
  EXPECT_EQ(out.find('\n'), std::string::npos);
}

TEST(JsonWriter, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonWriter::escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(JsonWriter::format_double(std::nan("")), "null");
  EXPECT_EQ(
      JsonWriter::format_double(std::numeric_limits<double>::infinity()),
      "null");
  EXPECT_EQ(
      JsonWriter::format_double(-std::numeric_limits<double>::infinity()),
      "null");
}

TEST(JsonWriter, DoubleFormattingRoundTrips) {
  for (const double v : {0.0, 1.5, -2.25, 0.1, 1e300, 1e-300, 123456.789}) {
    const std::string s = JsonWriter::format_double(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(JsonParse, ScalarsAndStructure) {
  std::string err;
  const auto v = json_parse(
      R"({"a": 1.5, "b": [true, null, "s\n"], "c": {"d": -3}})", &err);
  ASSERT_TRUE(v.has_value()) << err;
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->find("a")->number, 1.5);
  const JsonValue* b = v->find("b");
  ASSERT_TRUE(b && b->is_array());
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_TRUE(b->array[1].is_null());
  EXPECT_EQ(b->array[2].str, "s\n");
  EXPECT_DOUBLE_EQ(v->at_path("c.d")->number, -3.0);
}

TEST(JsonParse, AtPathMissesReturnNull) {
  const auto v = json_parse(R"({"a": {"b": 1}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->at_path("a.c"), nullptr);
  EXPECT_EQ(v->at_path("z"), nullptr);
  EXPECT_EQ(v->at_path("a.b.c"), nullptr);  // descending through a number
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "01", "\"unterminated",
                          "tru", "{\"a\":1} extra", ""}) {
    std::string err;
    EXPECT_FALSE(json_parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(JsonParse, WriterOutputRoundTrips) {
  const std::string doc = written([](JsonWriter& w) {
    w.begin_object();
    w.field("schema", "wormsim.telemetry/1");
    w.field("pi", 3.14159);
    w.field("neg", std::int64_t{-7});
    w.field("big", std::uint64_t{1} << 53);
    w.field("text", "quote \" backslash \\ tab \t");
    w.end_object();
  });
  std::string err;
  const auto v = json_parse(doc, &err);
  ASSERT_TRUE(v.has_value()) << err << " in " << doc;
  EXPECT_EQ(v->find("schema")->str, "wormsim.telemetry/1");
  EXPECT_DOUBLE_EQ(v->find("pi")->number, 3.14159);
  EXPECT_DOUBLE_EQ(v->find("neg")->number, -7.0);
  EXPECT_EQ(v->find("text")->str, "quote \" backslash \\ tab \t");
}

}  // namespace
}  // namespace wormsim::util
