// The minimal JSON reader backing `dvs_sim report` — exercised against the
// shapes this repo's writers emit plus the malformed-input edges.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace dvs::json {
namespace {

TEST(Json, ParsesScalarsAndNesting) {
  const ValuePtr v = parse(
      R"({"a": 1.5, "b": "text", "c": true, "d": null, "e": [1, 2, 3],)"
      R"( "f": {"nested": -2e3}})");
  EXPECT_DOUBLE_EQ(v->at("a").as_number(), 1.5);
  EXPECT_EQ(v->at("b").as_string(), "text");
  EXPECT_TRUE(v->at("c").as_bool());
  EXPECT_TRUE(v->at("d").is_null());
  ASSERT_EQ(v->at("e").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v->at("e").as_array()[2]->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v->at("f").at("nested").as_number(), -2000.0);
}

TEST(Json, StringEscapes) {
  const ValuePtr v = parse(R"({"s": "a\"b\\c\nd\teA"})");
  EXPECT_EQ(v->at("s").as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, RoundTripsSeventeenDigitDoubles) {
  // The writers emit %.17g; the reader must give back the identical bits.
  const double x = 420.08444157537798;
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.17g]", x);
  const ValuePtr v = parse(buf);
  EXPECT_EQ(v->as_array()[0]->as_number(), x);
}

TEST(Json, HelperAccessors) {
  const ValuePtr v = parse(R"({"n": 2, "s": "x"})");
  EXPECT_DOUBLE_EQ(v->number_or("n", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(v->number_or("missing", -1.0), -1.0);
  EXPECT_EQ(v->string_or("s", "d"), "x");
  EXPECT_EQ(v->string_or("missing", "d"), "d");
  EXPECT_EQ(v->find("missing"), nullptr);
  EXPECT_THROW(v->at("missing"), ParseError);
  EXPECT_THROW(v->at("n").as_string(), ParseError);
}

TEST(Json, IntegersAreWholeAndInRange) {
  const ValuePtr v = parse(
      R"({"max": 9007199254740991, "big": 9007199254740992, "neg": -1,)"
      R"( "frac": 2.5, "nan": "x", "ten": 10})");
  EXPECT_EQ(v->at("max").as_integer(UINT64_MAX), 9007199254740991u);
  EXPECT_EQ(v->at("ten").as_integer(10), 10u);
  EXPECT_THROW((void)v->at("ten").as_integer(9), ParseError);
  EXPECT_THROW((void)v->at("big").as_integer(UINT64_MAX), ParseError);
  EXPECT_THROW((void)v->at("neg").as_integer(UINT64_MAX), ParseError);
  EXPECT_THROW((void)v->at("frac").as_integer(UINT64_MAX), ParseError);
  EXPECT_THROW((void)v->at("nan").as_integer(UINT64_MAX), ParseError);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("{\"a\":}"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("{} trailing"), ParseError);
  EXPECT_THROW(parse("tru"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("1.e5"), ParseError);
}

TEST(Json, ParseFileReportsPathOnFailure) {
  EXPECT_THROW(parse_file("/nonexistent/nope.json"), ParseError);
  const std::string path = ::testing::TempDir() + "json_test_doc.json";
  {
    std::ofstream os(path);
    os << R"({"k": [true, false]})";
  }
  const ValuePtr v = parse_file(path);
  EXPECT_FALSE(v->at("k").as_array()[1]->as_bool());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dvs::json
