/**
 * @file
 * Tests for the JSON read side (sim/json.h, parseJson): the loader
 * under every result-store record. The properties that matter there:
 * 64-bit integers parse exactly (digests and cycle counts never round
 * through a double), damage of any shape is a clean false — never a
 * throw — and everything JsonWriter emits parses back.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "sim/json.h"

namespace memento {
namespace {

JsonValue
parseOk(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, v, err)) << text << ": " << err;
    return v;
}

void
expectParseFails(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(text, v, err)) << text;
    EXPECT_FALSE(err.empty()) << text << ": error must name a reason";
}

TEST(JsonParse, ScalarsParse)
{
    EXPECT_EQ(parseOk("null").type, JsonValue::Type::Null);
    EXPECT_TRUE(parseOk("true").boolean);
    EXPECT_FALSE(parseOk("false").boolean);

    const JsonValue s = parseOk("\"hi\"");
    ASSERT_TRUE(s.isString());
    EXPECT_EQ(s.str, "hi");

    const JsonValue n = parseOk("42");
    ASSERT_TRUE(n.isNumber());
    EXPECT_TRUE(n.isInteger);
    EXPECT_EQ(n.u64, 42u);
    EXPECT_EQ(n.number, 42.0);
}

TEST(JsonParse, LargeIntegersAreExact)
{
    // 2^64 - 1: far beyond a double's 53-bit mantissa. A digest that
    // rounded here would quietly invalidate every cache comparison.
    const JsonValue v = parseOk("18446744073709551615");
    ASSERT_TRUE(v.isNumber());
    ASSERT_TRUE(v.isInteger);
    EXPECT_EQ(v.u64, 18446744073709551615ull);

    const JsonValue above = parseOk("0.5");
    EXPECT_FALSE(above.isInteger);
    EXPECT_EQ(above.number, 0.5);

    // Negative and fractional numbers are numbers, not u64 integers.
    const JsonValue neg = parseOk("-3");
    ASSERT_TRUE(neg.isNumber());
    EXPECT_FALSE(neg.isInteger);
    EXPECT_EQ(neg.number, -3.0);

    const JsonValue sci = parseOk("1e3");
    ASSERT_TRUE(sci.isNumber());
    EXPECT_EQ(sci.number, 1000.0);
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\\"b\"").str, "a\"b");
    EXPECT_EQ(parseOk("\"a\\\\b\"").str, "a\\b");
    EXPECT_EQ(parseOk("\"a\\nb\\tc\"").str, "a\nb\tc");
    EXPECT_EQ(parseOk("\"\\u0041\"").str, "A");
}

TEST(JsonParse, ObjectsAndArrays)
{
    const JsonValue v = parseOk(
        "{\"a\": [1, 2, 3], \"b\": {\"c\": \"d\"}, \"e\": null}");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members.size(), 3u);

    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_EQ(a->items[1].u64, 2u);

    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_NE(b->find("c"), nullptr);
    EXPECT_EQ(b->find("c")->str, "d");

    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(v.find("e")->type, JsonValue::Type::Null);
}

TEST(JsonParse, DamageIsAFalseNeverAThrow)
{
    expectParseFails("");
    expectParseFails("{");
    expectParseFails("{\"a\": }");
    expectParseFails("{\"a\": 1,}");
    expectParseFails("[1, 2");
    expectParseFails("\"unterminated");
    expectParseFails("nul");
    expectParseFails("{\"a\" 1}");
    // Trailing garbage: exactly the shape of a torn record where the
    // next write started mid-file.
    expectParseFails("{\"a\": 1} {\"b\":");
    expectParseFails("123 456");
    // A header whose tail was chopped mid-string.
    expectParseFails("{\"kind\": \"result-ce");
}

TEST(JsonParse, TrailingWhitespaceIsAllowed)
{
    const JsonValue v = parseOk("  {\"a\": 1}  \n\t");
    EXPECT_TRUE(v.isObject());
}

TEST(JsonParse, WriterOutputRoundTrips)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    writeSchemaHeader(w, "fleet");
    w.member("count", std::uint64_t{18446744073709551615ull});
    w.member("name", "quo\"te\n");
    w.member("ratio", 0.125);
    w.key("items").beginArray();
    w.value(std::uint64_t{7}).value(false).valueNull();
    w.endArray();
    w.endObject();
    ASSERT_TRUE(w.complete());

    const JsonValue v = parseOk(os.str());
    EXPECT_EQ(v.find("schema_version")->u64, kJsonSchemaVersion);
    EXPECT_EQ(v.find("kind")->str, "fleet");
    EXPECT_EQ(v.find("count")->u64, 18446744073709551615ull);
    EXPECT_EQ(v.find("name")->str, "quo\"te\n");
    EXPECT_EQ(v.find("ratio")->number, 0.125);
    const JsonValue *items = v.find("items");
    ASSERT_NE(items, nullptr);
    ASSERT_EQ(items->items.size(), 3u);
    EXPECT_EQ(items->items[0].u64, 7u);
    EXPECT_FALSE(items->items[1].boolean);
    EXPECT_EQ(items->items[2].type, JsonValue::Type::Null);
}

TEST(JsonParse, DuplicateKeysArePreservedInOrder)
{
    const JsonValue v = parseOk("{\"a\": 1, \"a\": 2}");
    ASSERT_EQ(v.members.size(), 2u);
    // find() returns the first, matching common JSON semantics.
    EXPECT_EQ(v.find("a")->u64, 1u);
}

} // namespace
} // namespace memento
