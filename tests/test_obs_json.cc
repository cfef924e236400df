/**
 * @file
 * Strict JSON parser tests: the obs::parseJson DOM backs the
 * bench-trend tool and the perf-snapshot consumers, so it must
 * accept exactly the JSON our writers emit and reject malformed
 * documents loudly (with a byte offset) instead of guessing.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/json.hh"

using namespace fa3c;
using obs::Json;
using obs::parseJson;

TEST(ParseJson, Scalars)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_TRUE(parseJson("true").boolean);
    EXPECT_FALSE(parseJson("false").boolean);
    EXPECT_DOUBLE_EQ(parseJson("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parseJson("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
}

TEST(ParseJson, NestedDocument)
{
    const Json doc = parseJson(
        R"({"schema":"fa3c.bench.v1","bench":"nn_kernels",)"
        R"("fw_speedup_e2e":3.25,"rows":[{"layer":"conv1","op":"fw"},)"
        R"({"layer":"fc3","op":"gc"}]})");
    EXPECT_EQ(doc.stringOr("schema", ""), "fa3c.bench.v1");
    EXPECT_DOUBLE_EQ(doc.numberOr("fw_speedup_e2e", 0.0), 3.25);
    ASSERT_TRUE(doc.at("rows").isArray());
    ASSERT_EQ(doc.at("rows").array.size(), 2u);
    EXPECT_EQ(doc.at("rows").array[1].stringOr("layer", ""), "fc3");
}

TEST(ParseJson, StringEscapes)
{
    EXPECT_EQ(parseJson(R"("a\\b\"c\nd\te")").asString(),
              "a\\b\"c\nd\te");
    EXPECT_EQ(parseJson(R"("AB")").asString(), "AB");
}

TEST(ParseJson, WhitespaceTolerated)
{
    const Json doc = parseJson("  { \"a\" : [ 1 , 2 ] }\n");
    EXPECT_DOUBLE_EQ(doc.at("a").array[1].asNumber(), 2.0);
}

TEST(ParseJson, RejectsTrailingContent)
{
    EXPECT_THROW(parseJson("{} x"), std::runtime_error);
    EXPECT_THROW(parseJson("1 2"), std::runtime_error);
}

TEST(ParseJson, RejectsMalformedDocuments)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{"), std::runtime_error);
    EXPECT_THROW(parseJson("[1,]"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(parseJson("'single'"), std::runtime_error);
    EXPECT_THROW(parseJson("nul"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
}

TEST(ParseJson, RejectsRawControlCharsInStrings)
{
    const std::string bad = std::string("\"a") + '\n' + "b\"";
    EXPECT_THROW(parseJson(bad), std::runtime_error);
}

TEST(ParseJson, RejectsBadEscapesAndNumbers)
{
    EXPECT_THROW(parseJson(R"("\q")"), std::runtime_error);
    EXPECT_THROW(parseJson(R"("\u00zz")"), std::runtime_error);
    EXPECT_THROW(parseJson(R"("\u00")"), std::runtime_error);
    EXPECT_THROW(parseJson("\"\\"), std::runtime_error);
    EXPECT_THROW(parseJson("-"), std::runtime_error);
    EXPECT_THROW(parseJson("1."), std::runtime_error);
    EXPECT_THROW(parseJson("1e+"), std::runtime_error);
    EXPECT_THROW(parseJson("[1 2]"), std::runtime_error);
}

TEST(JsonDom, AccessorsThrowOnKindMismatch)
{
    const Json doc = parseJson(R"({"n":1,"s":"x"})");
    EXPECT_THROW(doc.at("missing"), std::runtime_error);
    EXPECT_THROW(doc.at("s").asNumber(), std::runtime_error);
    EXPECT_THROW(doc.at("n").asString(), std::runtime_error);
    EXPECT_DOUBLE_EQ(doc.numberOr("absent", 7.0), 7.0);
    EXPECT_EQ(doc.stringOr("absent", "d"), "d");
    EXPECT_TRUE(doc.has("n"));
    EXPECT_FALSE(doc.has("absent"));
}
