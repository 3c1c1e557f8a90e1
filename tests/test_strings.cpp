#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace dhtidx {
namespace {

TEST(Split, BasicFields) {
  EXPECT_EQ(split("a/b/c", '/'), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a//c", '/'), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("/a/", '/'), (std::vector<std::string>{"", "a", ""}));
}

TEST(Split, EmptyStringYieldsOneEmptyField) {
  EXPECT_EQ(split("", '/'), std::vector<std::string>{""});
}

TEST(Split, NoSeparator) {
  EXPECT_EQ(split("abc", '/'), std::vector<std::string>{"abc"});
}

TEST(Join, RoundTripsSplit) {
  const std::string text = "author/last/Smith";
  EXPECT_EQ(join(split(text, '/'), "/"), text);
}

TEST(Join, EmptyParts) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
  EXPECT_EQ(join({"x", "y"}, ", "), "x, y");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
}

TEST(Trim, AllWhitespaceBecomesEmpty) {
  EXPECT_EQ(trim(" \t\r\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Trim, PreservesInteriorWhitespace) {
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(ToLower, Basic) {
  EXPECT_EQ(to_lower("John SMITH"), "john smith");
  EXPECT_EQ(to_lower("123-abc"), "123-abc");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("/article", "/"));
  EXPECT_TRUE(starts_with("abc", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(ParseNumber, AcceptsPlainDigits) {
  EXPECT_EQ(parse_number<std::size_t>("0"), 0u);
  EXPECT_EQ(parse_number<std::size_t>("500"), 500u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_number<int>("2003"), 2003);
  EXPECT_EQ(parse_number<std::uint32_t>("10FFFF", 16), 0x10FFFFu);
  EXPECT_EQ(parse_number<std::uint32_t>("e9", 16), 0xE9u);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("1"), 1.0);
}

TEST(ParseNumber, RejectsSignsBlanksAndJunk) {
  // Anything but the digits of one value is rejected, so no input loads as
  // a wrapped or truncated number.
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "\t1", "12kb", "1.5", "0x10", "1e3",
                           "abc"}) {
    EXPECT_EQ(parse_number<std::size_t>(text), std::nullopt) << '"' << text << '"';
  }
  EXPECT_EQ(parse_number<int>("-2003"), std::nullopt);
  EXPECT_EQ(parse_number<int>("2003junk"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint32_t>("41g", 16), std::nullopt);
  EXPECT_EQ(parse_number<std::uint32_t>("x41", 16), std::nullopt);
  for (const char* text : {"", "-0.5", "+0.5", " 0.5", "0.5x", ".5", "inf", "nan", "1e-3"}) {
    EXPECT_EQ(parse_number<double>(text), std::nullopt) << '"' << text << '"';
  }
}

TEST(ParseNumber, RejectsValuesTheTypeCannotHold) {
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551616"), std::nullopt);
  EXPECT_EQ(parse_number<int>("2147483648"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint32_t>("110000000", 16), std::nullopt);
}

}  // namespace
}  // namespace dhtidx
