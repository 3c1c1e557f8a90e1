#include "query/query.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "biblio/stream.hpp"
#include "common/error.hpp"
#include "index/scheme.hpp"
#include "xml/parser.hpp"

namespace dhtidx::query {
namespace {

TEST(QueryParse, PaperStylePathQuery) {
  // q4 = /article/title/TCP -- the last step is the value.
  const Query q = Query::parse("/article/title/TCP");
  EXPECT_EQ(q.root(), "article");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "title");
  EXPECT_EQ(q.constraints()[0].value(), "TCP");
}

TEST(QueryParse, DeepPathQuery) {
  // q6 = /article/author/last/Smith.
  const Query q = Query::parse("/article/author/last/Smith");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "author/last");
  EXPECT_EQ(q.constraints()[0].value(), "Smith");
}

TEST(QueryParse, NestedPredicates) {
  // q3 = /article/author[first/John][last/Smith].
  const Query q = Query::parse("/article/author[first/John][last/Smith]");
  ASSERT_EQ(q.constraints().size(), 2u);
  EXPECT_EQ(q.constraints()[0].path_string(), "author/first");
  EXPECT_EQ(q.constraints()[0].value(), "John");
  EXPECT_EQ(q.constraints()[1].path_string(), "author/last");
  EXPECT_EQ(q.constraints()[1].value(), "Smith");
}

TEST(QueryParse, FullMostSpecificQuery) {
  // q1 from Figure 2.
  const Query q = Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]"
      "[year/1989][size/315635]");
  EXPECT_EQ(q.constraints().size(), 6u);
}

TEST(QueryParse, ExplicitValueSyntax) {
  const Query a = Query::parse("/article[author/last=Smith]");
  const Query b = Query::parse("/article/author/last/Smith");
  EXPECT_EQ(a, b);
}

TEST(QueryParse, QuotedValues) {
  const Query q = Query::parse("/article[title='A = B [sic] /ok\\' quote']");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].value(), "A = B [sic] /ok' quote");
}

TEST(QueryParse, PresenceSingleStep) {
  const Query q = Query::parse("/article/author");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "author");
  EXPECT_FALSE(q.constraints()[0].has_value());
}

TEST(QueryParse, PresenceMarkerForNestedField) {
  const Query q = Query::parse("/article[author/last=*]");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "author/last");
  EXPECT_FALSE(q.constraints()[0].has_value());
}

TEST(QueryParse, RootOnly) {
  const Query q = Query::parse("/article");
  EXPECT_EQ(q.root(), "article");
  EXPECT_FALSE(q.has_constraints());
}

TEST(QueryParse, DescendantAxisInPredicate) {
  const Query q = Query::parse("/article[//last/Smith]");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_TRUE(q.constraints()[0].descendant());
  EXPECT_EQ(q.constraints()[0].path_string(), "last");
  EXPECT_EQ(q.constraints()[0].value(), "Smith");
}

TEST(QueryParse, WildcardSegment) {
  const Query q = Query::parse("/article[*/last=Smith]");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "*/last");
}

TEST(QueryParse, MalformedInputsRejected) {
  EXPECT_THROW(Query::parse(""), ParseError);
  EXPECT_THROW(Query::parse("article"), ParseError);
  EXPECT_THROW(Query::parse("/article[unclosed"), ParseError);
  EXPECT_THROW(Query::parse("/article]"), ParseError);
  EXPECT_THROW(Query::parse("/article[=x]"), ParseError);
  EXPECT_THROW(Query::parse("//article"), ParseError);
  EXPECT_THROW(Query::parse("/article[a=]"), ParseError);
}

TEST(QueryNormalization, EquivalentSpellingsShareCanonicalForm) {
  // Footnote 1: equivalent expressions are transformed into a unique
  // normalized format (and hence the same DHT key).
  const Query a = Query::parse("/article[author[first/John][last/Smith]][conf/INFOCOM]");
  const Query b = Query::parse("/article[conf=INFOCOM][author/last=Smith][author/first=John]");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.key(), b.key());
}

TEST(QueryNormalization, DuplicateConstraintsCollapse) {
  const Query q = Query::parse("/article[title/TCP][title=TCP]");
  EXPECT_EQ(q.constraints().size(), 1u);
}

TEST(QueryCanonical, RoundTripsThroughParser) {
  const char* samples[] = {
      "/article/title/TCP",
      "/article[author[first/John][last/Smith]][conf/SIGCOMM]",
      "/article[author/last=*]",
      "/article/author",
      "/article[//last/Smith]",
      "/article[title='we [heart] DHTs']",
      "/article[*/last=Doe]",
  };
  for (const char* text : samples) {
    const Query q = Query::parse(text);
    const Query reparsed = Query::parse(q.canonical());
    EXPECT_EQ(reparsed, q) << text << " -> " << q.canonical();
    EXPECT_EQ(reparsed.canonical(), q.canonical());
  }
}

TEST(QueryCanonical, RoundTripsValuesWithEdgeWhitespace) {
  // The parser skips blanks before a bare value and trims them after it, so
  // a value with a blank at either end must be quoted to survive a reparse.
  for (const char* value : {" x", "x ", "x\n", "\tx", " ", " Leading blank"}) {
    Query q{"article"};
    q.add_field("title", value);
    const Query reparsed = Query::parse(q.canonical());
    EXPECT_EQ(reparsed, q) << q.canonical();
    ASSERT_EQ(reparsed.constraints().size(), 1u);
    EXPECT_EQ(reparsed.constraints()[0].value(), value) << q.canonical();
  }
}

TEST(QueryCanonical, QuotesStarValue) {
  Query q{"article"};
  q.add_field("title", "*");
  const Query reparsed = Query::parse(q.canonical());
  ASSERT_EQ(reparsed.constraints().size(), 1u);
  EXPECT_EQ(reparsed.constraints()[0].value(), "*");
}

/// Every constraint kind, every value that needs quoting, the step order
/// that differs from byte order ("a/b" before "a-b"), and the queries the
/// simple scheme and figure 4 derive from a few streamed articles.
std::vector<Query> pinned_queries() {
  std::vector<Query> out;
  for (const char* text : {
           "/article[title=TCP]",                   // exact
           "/article[author/last^=Sm]",             // prefix
           "/article/author",                       // single-step presence
           "/article[author/last=*]",               // multi-step presence
           "/article[//last=Smith]",                // descendant
           "/article[//author/last^=S][conf=INFOCOM][year]",
           "/article[*/last=Doe]",                  // wildcard step
           "/*[title=TCP]",                         // wildcard root
           "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]"
           "[year/1989][size/315635]",
       }) {
    out.push_back(Query::parse(text));
  }
  for (const char* value : {"it's", "back\\slash", "[odd]", "*", "", "a=b/c", "x y"}) {
    out.push_back(Query{"article"}.add_field("title", value));
  }
  out.push_back(Query{"article"}.add_prefix("title", "a'b"));
  out.push_back(Query{"article"}.add_field("title", " Leading blank"));
  out.push_back(Query{"article"}.add_field("a-b", "2").add_field("a/b", "1"));
  out.push_back(Query{"article"}.add_presence("a/b").add_field("a/b", "1").add_prefix("a/b", "1"));
  biblio::CorpusConfig config;
  config.articles = 3;
  const biblio::ArticleStream stream{config};
  // figure4 is the simple scheme plus a path rule; the prefix rule is the
  // one examples/biblio_search adds.
  index::IndexingScheme scheme = index::IndexingScheme::figure4();
  scheme.add_prefix_rule({{"author", "last"}, 1, {"author"}, false});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Query msd = stream.article(i).msd();
    out.push_back(msd);
    for (const index::Mapping& m : scheme.mappings_for(msd)) {
      for (const Query* q : {&m.source, &m.target}) {
        if (std::find(out.begin(), out.end(), *q) == out.end()) out.push_back(*q);
      }
    }
  }
  return out;
}

struct Pinned {
  const char* canonical;
  const char* key;
  std::uint64_t signature;
};

/// pinned_queries()' canonical strings, DHT keys and covers() signatures.
/// A representation change must reproduce every line.
constexpr Pinned kPinned[] = {
    {"/article[title=TCP]",
     "a00a68a20f5e00dc6e694eaca6c71e889a755f15", 0x0000212000004000u},
    {"/article[author/last^=Sm]",
     "f76179586cc12e3b7eeeb7a63daeca893bf41fbd", 0x0000000000000000u},
    {"/article[author]",
     "4cd7ecbb8cbd4e8b18dd3ef16be579ee651682dc", 0x0000000000000000u},
    {"/article[author/last=*]",
     "f6c5b5c884e4204ad24dbba48a7423f4ec8e559a", 0x0000000000000000u},
    {"/article[//last=Smith]",
     "064afb19ced4e8654ac88274f9d40b1616455b41", 0x0000000000000000u},
    {"/article[//author/last^=S][conf=INFOCOM][year]",
     "0af6016aa4a191eddcf3374b6cf260cb447256a9", 0x0000000000020016u},
    {"/article[*/last=Doe]",
     "f011fa82ea0b829b4d86827b3302e23233f00939", 0x0000000000000000u},
    {"/*[title=TCP]",
     "e9dd64342a062c311e3e7c95ab29d1b54d094f83", 0x0000212000004000u},
    {"/article[author/first=John][author/last=Smith][conf=SIGCOMM][size=315635]"
     "[title=TCP][year=1989]",
     "13827801c4235206af3bc6d902cf6b1b527e775d", 0x181aa16781406041u},
    {"/article[title='it\\'s']",
     "203be4a44ddaf54ad2eb0a5d830ed93e1b1a08e0", 0x0800200010800000u},
    {"/article[title='back\\\\slash']",
     "565aa6a60da1c0c7f4009701c47e6ce91f875bee", 0x0000000060400008u},
    {"/article[title='[odd]']",
     "e8075eebc509b748919e2be48bd59aa7055be4bf", 0x0804020000000040u},
    {"/article[title='*']",
     "2dc2099e20851c474ed31583c1ccaa0afd097af4", 0x4080000800000002u},
    {"/article[title='']",
     "362b9f8374ac06b6c31fa0e4d3724f8e50dd643c", 0x0000000010000110u},
    {"/article[title='a=b/c']",
     "4dc004a7324fb2a76c7f551419ec70b1b69aeea2", 0x8000001004020000u},
    {"/article[title=x y]",
     "f28a1c2920f244190f01baf4b80278d8cc5cf680", 0x0000100080000400u},
    {"/article[title^='a\\'b']",
     "aac4a2572ec095671ce3bed99dce0115415a09fa", 0x0000000000000000u},
    // A value with an edge blank is quoted so the parser keeps the blank.
    {"/article[title=' Leading blank']",
     "8aee6fc91fa30b4648e06de95eeed942f2aaa275", 0x0040000084002000u},
    {"/article[a/b=1][a-b=2]",
     "68b4c8138bdd582d83a834ae75273f2470e15805", 0x040010800a8000c0u},
    {"/article[a/b=*][a/b=1][a/b^=1]",
     "6a8fe8dadcf423a1d2cc229cd8b16c8e019972fa", 0x0400008008000040u},
    {"/article[author/first=Wei][author/last=Tanaka][conf=ICPP-2][size=396132]"
     "[title=Service tcp (0)][year=1998]",
     "39c78f1cebe16335decf4666364b04adb181312a", 0xa480820a190130e7u},
    {"/article[author/first=Wei][author/last=Tanaka]",
     "ff2e9f443f99c5420f02be70d53adcfe72ed61de", 0x8000820010003002u},
    {"/article[author/first=Wei][author/last=Tanaka][title=Service tcp (0)]",
     "5ca1c02dbb1ae89d9f131ccef78a878bfdfd06c6", 0x80008208100030a2u},
    {"/article[title=Service tcp (0)]",
     "1647dbebdba15c337ccf29f0d9688321daf3b5a3", 0x80000008000000a0u},
    {"/article[conf=ICPP-2]",
     "5875a333e13b9d00455e3f2e80473cde1b7f9129", 0xa000000008000004u},
    {"/article[conf=ICPP-2][year=1998]",
     "a08894b43a9c953d1b96e073f816899deb83e82a", 0xa400000008012044u},
    {"/article[year=1998]",
     "7ba8c61313f76ad29c86c0ea6029c9f684fb9f4c", 0x0400000000012040u},
    {"/article[author/last=Tanaka]",
     "bba3171ca5964a7e3fd90b11fc9157caa795b718", 0x0000800010000002u},
    {"/article[author/last^=T]",
     "bfce8a123c80f5733d9b4374dc9372f9de088dbc", 0x0000000000000000u},
    {"/article[author/first=Liam][author/last=Vargas][conf=MIDDLEWARE][size=181807]"
     "[title=Adaptive consensus hashing (1)][year=1994]",
     "4559d1c1c9ba6cec0ee9c30f0e478e9925caf1b4", 0x03326a041c403b39u},
    {"/article[author/first=Liam][author/last=Vargas]",
     "833ddd792696b6df5907fe54f69fccf8031208c0", 0x000208001c000308u},
    {"/article[author/first=Liam][author/last=Vargas]"
     "[title=Adaptive consensus hashing (1)]",
     "35db98fab42c5b03f3f16c6c405f2595af66ffcc", 0x010268001c400308u},
    {"/article[title=Adaptive consensus hashing (1)]",
     "da44362676b3e6fdcc7fa376ce1302dacdb23225", 0x0100600000400000u},
    {"/article[conf=MIDDLEWARE]",
     "984b26786a6ffa980beb46c55154d350b4f073d5", 0x0200400000001800u},
    {"/article[conf=MIDDLEWARE][year=1994]",
     "bfaf374f361628b055c2d54574d9ee555692a738", 0x0200420000003830u},
    {"/article[year=1994]",
     "cbd85f4eca647acd634057f2d02a86da3508eea4", 0x0000020000002030u},
    {"/article[author/last=Vargas]",
     "5a1e416817de19db15a984920a37de2d01fb0ff2", 0x0002000008000208u},
    {"/article[author/last^=V]",
     "7ba652063fcbce84c71159402f1d7f1d5d145ddc", 0x0000000000000000u},
    {"/article[author/first=David][author/last=Bianchi][conf=WWW][size=101894]"
     "[title=Network evaluation (2)][year=2001]",
     "58fd943c23f774da10aacd751b654b016e68b8d3", 0x20a1020e049610b3u},
    {"/article[author/first=David][author/last=Bianchi]",
     "78d408477e9cf50d821c0035f83c986c724b4906", 0x00a1000400860020u},
    {"/article[author/first=David][author/last=Bianchi][title=Network evaluation (2)]",
     "f1936d9421e0035dd0814edd28e212e72413a6d5", 0x00a1000c009600a1u},
    {"/article[title=Network evaluation (2)]",
     "7afe5c012c5d4af3b7ef3dbcb83cc8237e1791eb", 0x0000000800100081u},
    {"/article[conf=WWW]",
     "348e7bada7dfe9afd80e809656bc2e6d859855c1", 0x2000000200040080u},
    {"/article[conf=WWW][year=2001]",
     "cee93faae335824db962a5cca987a74ffe25a4fb", 0x2000000204060092u},
    {"/article[year=2001]",
     "e90cbe8baa7a9375d1dcb6cd8e0a51ef1f22a9a9", 0x0000000004020012u},
    {"/article[author/last=Bianchi]",
     "e17874051a98b0162165feefc212e396477f33b8", 0x0080000000060020u},
    {"/article[author/last^=B]",
     "e6e7ab98089b4bb84ddcdc2ada520034aeaaffc5", 0x0000000000000000u},
};

TEST(QueryCanonical, PinnedFormsKeysAndSignatures) {
  const std::vector<Query> queries = pinned_queries();
  ASSERT_EQ(queries.size(), std::size(kPinned));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(kPinned[i].canonical);
    EXPECT_EQ(queries[i].canonical(), kPinned[i].canonical);
    EXPECT_EQ(queries[i].key().to_hex(), kPinned[i].key);
    EXPECT_EQ(queries[i].signature(), kPinned[i].signature);
  }
}

TEST(QueryBuild, AddFieldMatchesParsedForm) {
  Query q{"article"};
  q.add_field("author/first", "John").add_field("author/last", "Smith");
  EXPECT_EQ(q, Query::parse("/article/author[first/John][last/Smith]"));
}

TEST(QueryBuild, EmptyPathRejected) {
  Query q{"article"};
  EXPECT_THROW(q.add_constraint(Constraint{}), InvariantError);
}

TEST(QueryBuild, SlashInAStepAndBracketInTheRootRejected) {
  // A constraint's path is kept as '/'-joined text, and the root ends at the
  // first '[' of the canonical string: either character would corrupt them.
  Query q{"article"};
  Constraint slashed;
  slashed.path = {"author/last"};
  slashed.value = "Smith";
  EXPECT_THROW(q.add_constraint(slashed), InvariantError);
  EXPECT_EQ(q.canonical(), "/article");
  EXPECT_THROW((void)Query{"art[icle"}, InvariantError);
}

TEST(QueryMostSpecific, CapturesAllLeaves) {
  const xml::Element doc = xml::parse(
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>TCP</title><conf>SIGCOMM</conf><year>1989</year>"
      "<size>315635</size></article>");
  const Query msd = Query::most_specific(doc);
  EXPECT_EQ(msd.constraints().size(), 6u);
  EXPECT_TRUE(msd.matches(doc));
  EXPECT_TRUE(msd.is_most_specific_of(doc));
  // The paper's q1 is exactly this query.
  const Query q1 = Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]"
      "[year/1989][size/315635]");
  EXPECT_EQ(msd, q1);
}

TEST(QueryGeneralizations, DropOneProducesCoveringQueries) {
  const Query q = Query::parse("/article[author/last=Smith][year=1996][conf=INFOCOM]");
  const auto gens = q.drop_one_generalizations();
  ASSERT_EQ(gens.size(), 3u);
  for (const Query& g : gens) {
    EXPECT_EQ(g.constraints().size(), 2u);
    EXPECT_TRUE(g.covers(q));
    EXPECT_FALSE(q.covers(g));
  }
}

TEST(QueryKeepConstraints, SelectsSubset) {
  const Query q = Query::parse("/article[conf=A][title=B][year=C]");
  const Query sub = q.keep_constraints({0, 2});
  EXPECT_EQ(sub.constraints().size(), 2u);
  EXPECT_TRUE(sub.covers(q));
  EXPECT_THROW(q.keep_constraints({9}), InvariantError);
}

TEST(QueryByteSize, TracksCanonicalLength) {
  const Query q = Query::parse("/article/title/TCP");
  EXPECT_EQ(q.byte_size(), q.canonical().size());
}

TEST(QueryHasherWorks, DistinctQueriesDistinctHashes) {
  QueryHasher hasher;
  EXPECT_NE(hasher(Query::parse("/article/title/TCP")),
            hasher(Query::parse("/article/title/IPV6")));
}

}  // namespace
}  // namespace dhtidx::query
