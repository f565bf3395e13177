/**
 * @file
 * Golden-schema tests for the shared JSON serializer (sim/json.h).
 *
 * Every --json surface of the simulator renders through JsonWriter, so
 * these tests pin the exact byte-level shape of the output: envelope,
 * indentation, number formatting, and escaping. A change that breaks a
 * golden string here is a schema change and must bump
 * kJsonSchemaVersion.
 */

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "sim/json.h"

namespace memento {
namespace {

TEST(JsonWriter, GoldenDocumentShape)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    writeSchemaHeader(w, "fleet");
    w.member("count", std::uint64_t{42});
    // Digests and cycle counts span the whole u64 range: written exactly.
    w.member("max", std::numeric_limits<std::uint64_t>::max());
    w.member("ratio", 0.5);
    w.member("on", true);
    w.key("items").beginArray();
    w.value("a");
    w.beginObject();
    w.member("id", "b");
    w.endObject();
    w.endArray();
    w.key("empty").beginArray().endArray();
    w.endObject();
    EXPECT_TRUE(w.complete());

    const std::string expected = "{\n"
                                 "  \"schema_version\": 1,\n"
                                 "  \"kind\": \"fleet\",\n"
                                 "  \"count\": 42,\n"
                                 "  \"max\": 18446744073709551615,\n"
                                 "  \"ratio\": 0.5,\n"
                                 "  \"on\": true,\n"
                                 "  \"items\": [\n"
                                 "    \"a\",\n"
                                 "    {\n"
                                 "      \"id\": \"b\"\n"
                                 "    }\n"
                                 "  ],\n"
                                 "  \"empty\": []\n"
                                 "}";
    EXPECT_EQ(os.str(), expected);
}

TEST(JsonWriter, EscapesSpecialCharacters)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.member("s", "quote\" slash\\ newline\n tab\t bell\x07");
    w.endObject();
    EXPECT_NE(os.str().find("quote\\\" slash\\\\ newline\\n tab\\t "
                            "bell\\u0007"),
              std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.member("nan", std::nan(""));
    w.member("inf", std::numeric_limits<double>::infinity());
    w.endObject();
    EXPECT_NE(os.str().find("\"nan\": null"), std::string::npos);
    EXPECT_NE(os.str().find("\"inf\": null"), std::string::npos);
}

TEST(JsonWriter, IncompleteUntilEveryFrameClosed)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("a").beginArray();
    EXPECT_FALSE(w.complete());
    w.endArray();
    EXPECT_FALSE(w.complete());
    w.endObject();
    EXPECT_TRUE(w.complete());
}

TEST(JsonEscape, PassesPlainTextThrough)
{
    EXPECT_EQ(jsonEscape("hello world_42"), "hello world_42");
}

} // namespace
} // namespace memento
