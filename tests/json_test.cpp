// eval::JsonWriter emission contracts: RFC 8259 string escaping (including
// embedded NULs and the \b/\f shorthands), comma placement across nested
// containers, non-finite doubles as null, and round-trippable numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "eval/json.h"

namespace poiprivacy {
namespace {

TEST(JsonWriter, EmptyContainers) {
  eval::JsonWriter object;
  object.begin_object();
  object.end_object();
  EXPECT_EQ(object.str(), "{}");

  eval::JsonWriter array;
  array.begin_array();
  array.end_array();
  EXPECT_EQ(array.str(), "[]");
}

TEST(JsonWriter, NestedContainersAndCommas) {
  eval::JsonWriter json;
  json.begin_object();
  json.field("a", std::int64_t{1});
  json.key("list");
  json.begin_array();
  json.value(std::int64_t{1});
  json.begin_object();
  json.field("b", true);
  json.end_object();
  json.begin_array();
  json.end_array();
  json.end_array();
  json.field("c", "x");
  json.end_object();
  EXPECT_EQ(json.str(), "{\"a\":1,\"list\":[1,{\"b\":true},[]],\"c\":\"x\"}");
}

TEST(JsonWriter, StringEscapes) {
  eval::JsonWriter json;
  json.value(std::string("q\" b\\ n\n t\t r\r b\b f\f"));
  EXPECT_EQ(json.str(), "\"q\\\" b\\\\ n\\n t\\t r\\r b\\b f\\f\"");
}

TEST(JsonWriter, ControlCharactersUseUnicodeEscapes) {
  eval::JsonWriter json;
  json.value(std::string("\x01\x1f"));
  EXPECT_EQ(json.str(), "\"\\u0001\\u001f\"");
}

TEST(JsonWriter, EmbeddedNulSurvivesAsUnicodeEscape) {
  eval::JsonWriter json;
  const std::string with_nul("a\0b", 3);
  json.value(with_nul);
  EXPECT_EQ(json.str(), "\"a\\u0000b\"");
}

TEST(JsonWriter, KeysAreEscapedToo) {
  eval::JsonWriter json;
  json.begin_object();
  json.field("we\"ird\n", std::int64_t{1});
  json.end_object();
  EXPECT_EQ(json.str(), "{\"we\\\"ird\\n\":1}");
}

TEST(JsonWriter, NonFiniteDoublesRenderAsNull) {
  eval::JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.value(std::numeric_limits<double>::infinity());
  json.value(-std::numeric_limits<double>::infinity());
  json.value(1.5);
  json.end_array();
  EXPECT_EQ(json.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, DoublesRoundTrip) {
  // No denormals: std::stod reports them as out_of_range (ERANGE).
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, -2.5e17,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max()};
  for (const double x : values) {
    eval::JsonWriter json;
    json.value(x);
    EXPECT_EQ(std::stod(json.str()), x) << json.str();
  }
}

TEST(JsonWriter, IntegerExtremes) {
  eval::JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<std::int64_t>::min());
  json.value(std::numeric_limits<std::int64_t>::max());
  json.value(std::numeric_limits<std::uint64_t>::max());
  json.end_array();
  EXPECT_EQ(json.str(),
            "[-9223372036854775808,9223372036854775807,"
            "18446744073709551615]");
}

TEST(JsonWriter, BoolValues) {
  eval::JsonWriter json;
  json.begin_array();
  json.value(true);
  json.value(false);
  json.end_array();
  EXPECT_EQ(json.str(), "[true,false]");
}

TEST(JsonWriter, NullValuesAndFields) {
  eval::JsonWriter json;
  json.begin_object();
  json.field("latency_ms", nullptr);
  json.key("list");
  json.begin_array();
  json.value(nullptr);
  json.value(1.5);
  json.end_array();
  json.field("after", true);
  json.end_object();
  EXPECT_EQ(json.str(), R"({"latency_ms":null,"list":[null,1.5],"after":true})");
}

}  // namespace
}  // namespace poiprivacy
