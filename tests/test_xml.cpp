#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "xml/node.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace dhtidx::xml {
namespace {

// The d1 descriptor of Figure 1.
constexpr const char* kDescriptorD1 = R"(
<article>
  <author>
    <first>John</first>
    <last>Smith</last>
  </author>
  <title>TCP</title>
  <conf>SIGCOMM</conf>
  <year>1989</year>
  <size>315635</size>
</article>)";

TEST(XmlParser, ParsesPaperDescriptor) {
  const Element doc = parse(kDescriptorD1);
  EXPECT_EQ(doc.name(), "article");
  ASSERT_NE(doc.child("author"), nullptr);
  EXPECT_EQ(doc.child("author")->child("first")->text(), "John");
  EXPECT_EQ(doc.child("author")->child("last")->text(), "Smith");
  EXPECT_EQ(doc.child("title")->text(), "TCP");
  EXPECT_EQ(doc.child("conf")->text(), "SIGCOMM");
  EXPECT_EQ(doc.child("year")->text(), "1989");
  EXPECT_EQ(doc.child("size")->text(), "315635");
}

TEST(XmlParser, SelfClosingTag) {
  const Element doc = parse("<a><b/><c/></a>");
  EXPECT_EQ(doc.children().size(), 2u);
  EXPECT_EQ(doc.children()[0].name(), "b");
  EXPECT_TRUE(doc.children()[0].text().empty());
}

TEST(XmlParser, Attributes) {
  const Element doc = parse(R"(<a key="v1" other='v2'/>)");
  EXPECT_EQ(doc.attribute("key"), "v1");
  EXPECT_EQ(doc.attribute("other"), "v2");
  EXPECT_EQ(doc.attribute("missing"), std::nullopt);
}

TEST(XmlParser, EntityDecoding) {
  const Element doc = parse("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>");
  EXPECT_EQ(doc.text(), "<x> & \"y\" 'z'");
}

TEST(XmlParser, NumericCharacterReferences) {
  const Element doc = parse("<a>&#65;&#x42;</a>");
  EXPECT_EQ(doc.text(), "AB");
}

TEST(XmlParser, NumericReferenceUtf8) {
  const Element doc = parse("<a>&#233;</a>");  // e-acute
  EXPECT_EQ(doc.text(), "\xC3\xA9");
}

TEST(XmlParser, EmptyCharacterReferenceIsAParseError) {
  // "&#;" and "&#x;" name no code point; the decoder must reject them
  // without reading past the reference (a snapshot mutation).
  EXPECT_THROW(parse("<a>&#;</a>"), ParseError);
  EXPECT_THROW(parse("<a b=\"&#;\"/>"), ParseError);
  EXPECT_THROW(parse("<a>&#x;</a>"), ParseError);
}

TEST(XmlParser, CharacterReferenceMustBeAllDigits) {
  // Junk after the digits, a sign or a blank makes the reference malformed
  // rather than decoding the digits it starts with.
  for (const char* doc : {"<a>&#65junk;</a>", "<a>&#x41g;</a>", "<a>&#+65;</a>",
                          "<a>&#-65;</a>", "<a>&# 65;</a>", "<a>&#x 41;</a>",
                          "<a>&#x-41;</a>", "<a>&#99999999999999999999;</a>"}) {
    EXPECT_THROW(parse(doc), ParseError) << doc;
  }
}

TEST(XmlParser, CData) {
  const Element doc = parse("<a><![CDATA[1 < 2 && 3 > 2]]></a>");
  EXPECT_EQ(doc.text(), "1 < 2 && 3 > 2");
}

TEST(XmlParser, CommentsIgnored) {
  const Element doc = parse("<a><!-- comment --><b/><!-- another --></a>");
  EXPECT_EQ(doc.children().size(), 1u);
}

TEST(XmlParser, DeclarationSkipped) {
  const Element doc = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>");
  EXPECT_EQ(doc.name(), "a");
}

TEST(XmlParser, MismatchedTagRejected) {
  EXPECT_THROW(parse("<a><b></a></b>"), ParseError);
}

TEST(XmlParser, UnterminatedElementRejected) {
  EXPECT_THROW(parse("<a><b>"), ParseError);
}

TEST(XmlParser, TrailingContentRejected) {
  EXPECT_THROW(parse("<a/><b/>"), ParseError);
}

TEST(XmlParser, UnknownEntityRejected) {
  EXPECT_THROW(parse("<a>&bogus;</a>"), ParseError);
}

TEST(XmlParser, ErrorsCarryLocation) {
  try {
    parse("<a>\n<b>\n</c>\n</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos) << e.what();
  }
}

std::string nested_elements(std::size_t levels) {
  std::string document;
  for (std::size_t i = 0; i < levels; ++i) document += "<a>";
  for (std::size_t i = 0; i < levels; ++i) document += "</a>";
  return document;
}

TEST(XmlParser, DeepNestingIsAParseErrorNotAStackOverflow) {
  // 100,000 levels (700 KB): a parser that recursed once per level without
  // a cap overflows the stack here, and load_snapshot parses whole files
  // through this parser.
  EXPECT_THROW(parse(nested_elements(100000)), ParseError);
}

TEST(XmlParser, DepthCapAdmitsExactlyMaxDepthLevels) {
  EXPECT_EQ(parse(nested_elements(kMaxDepth)).name(), "a");
  EXPECT_THROW(parse(nested_elements(kMaxDepth + 1)), ParseError);
}

TEST(XmlWriter, EscapesSpecialCharacters) {
  Element e{"a", "1 < 2 & x"};
  const std::string out = write(e, {.pretty = false});
  EXPECT_EQ(out, "<a>1 &lt; 2 &amp; x</a>");
}

TEST(XmlWriter, AttributeEscaping) {
  Element e{"a"};
  e.set_attribute("k", "say \"hi\" & <go>");
  const std::string out = write(e, {.pretty = false});
  EXPECT_NE(out.find("&quot;hi&quot;"), std::string::npos);
  EXPECT_NE(out.find("&lt;go&gt;"), std::string::npos);
}

TEST(XmlWriter, PrettyPrintIndents) {
  Element root{"a"};
  root.add_child("b", "x");
  const std::string out = write(root);
  EXPECT_NE(out.find("\n  <b>"), std::string::npos);
}

TEST(XmlWriter, DeclarationOption) {
  Element e{"a"};
  EXPECT_TRUE(write(e, {.declaration = true}).starts_with("<?xml"));
}

TEST(XmlNode, ChildLookupAndDescendants) {
  const Element doc = parse(kDescriptorD1);
  EXPECT_EQ(doc.find_descendant("last")->text(), "Smith");
  EXPECT_EQ(doc.find_descendant("nope"), nullptr);
  EXPECT_EQ(doc.children_named("title").size(), 1u);
  EXPECT_EQ(doc.subtree_size(), 8u);  // article, author, first, last, title, conf, year, size
}

TEST(XmlNode, EqualityIsStructural) {
  const Element a = parse("<a><b>x</b></a>");
  const Element b = parse("<a><b>x</b></a>");
  const Element c = parse("<a><b>y</b></a>");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(XmlNode, ByteSizeCountsSubtree) {
  Element leaf{"ab", "xyz"};
  // <ab>xyz</ab>: 2*2 + 5 + 3 = 12.
  EXPECT_EQ(leaf.byte_size(), 12u);
  Element root{"r"};
  root.add_child(leaf);
  EXPECT_GT(root.byte_size(), leaf.byte_size());
}

// Property: write(parse(x)) == write(parse(write(parse(x)))) for random trees.
Element random_tree(Rng& rng, int depth) {
  Element e{"n" + std::to_string(rng.next_index(20))};
  if (depth > 0 && rng.next_bool(0.7)) {
    const int children = static_cast<int>(rng.next_in(1, 3));
    for (int i = 0; i < children; ++i) e.add_child(random_tree(rng, depth - 1));
  } else {
    e.set_text("text<&>'\"" + std::to_string(rng.next_index(1000)));
  }
  if (rng.next_bool(0.3)) e.set_attribute("attr", "v&\"" + std::to_string(rng.next_index(9)));
  return e;
}

class XmlRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlRoundTripTest, ParseOfWriteIsIdentity) {
  Rng rng{GetParam()};
  const Element original = random_tree(rng, 4);
  for (const bool pretty : {true, false}) {
    const std::string serialized = write(original, {.pretty = pretty});
    const Element reparsed = parse(serialized);
    EXPECT_EQ(reparsed, original) << serialized;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest, ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace dhtidx::xml
