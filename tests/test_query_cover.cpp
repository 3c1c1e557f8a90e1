// The covering partial order (Section III-B), validated against Figures 2/3
// of the paper and by algebraic properties.
#include <gtest/gtest.h>

#include <vector>

#include "biblio/corpus.hpp"
#include "query/query.hpp"
#include "xml/parser.hpp"

namespace dhtidx::query {
namespace {

struct PaperQueries {
  Query q1 = Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]"
      "[year/1989][size/315635]");
  Query q2 = Query::parse("/article[author[first/John][last/Smith]][conf/INFOCOM]");
  Query q3 = Query::parse("/article/author[first/John][last/Smith]");
  Query q4 = Query::parse("/article/title/TCP");
  Query q5 = Query::parse("/article/conf/INFOCOM");
  Query q6 = Query::parse("/article/author/last/Smith");

  // MSDs of d2 and d3 (Figure 1).
  Query d2 = Query::parse(
      "/article[author[first/John][last/Smith]][title/IPv6][conf/INFOCOM]"
      "[year/1996][size/312352]");
  Query d3 = Query::parse(
      "/article[author[first/Alan][last/Doe]][title/Wavelets][conf/INFOCOM]"
      "[year/1996][size/259827]");
};

TEST(Covering, Figure3Edges) {
  // Figure 3 partial ordering: qi -> qj reads qi covered-by... the arrows in
  // the figure point from more specific to less specific; we verify covering
  // top-down: q4 ⊒ q1 (wait: more specific above) -- concretely:
  const PaperQueries p;
  // q4 (title TCP) covers q1 (the MSD of d1).
  EXPECT_TRUE(p.q4.covers(p.q1));
  // q3 (author John Smith) covers q1 and q2 and d2.
  EXPECT_TRUE(p.q3.covers(p.q1));
  EXPECT_TRUE(p.q3.covers(p.q2));
  EXPECT_TRUE(p.q3.covers(p.d2));
  // q2 covers d2 (author + INFOCOM).
  EXPECT_TRUE(p.q2.covers(p.d2));
  // q5 (conf INFOCOM) covers q2, d2, d3.
  EXPECT_TRUE(p.q5.covers(p.q2));
  EXPECT_TRUE(p.q5.covers(p.d2));
  EXPECT_TRUE(p.q5.covers(p.d3));
  // q6 (last Smith) covers q3.
  EXPECT_TRUE(p.q6.covers(p.q3));
}

TEST(QuerySignature, Figure3EdgesKeepSignatureSubset) {
  // Every edge of Figure 3 passes the covering signature filter: the general
  // query carries bits, and none falls outside the specific one's.
  const PaperQueries p;
  const std::pair<const Query*, const Query*> edges[] = {
      {&p.q4, &p.q1}, {&p.q3, &p.q1}, {&p.q3, &p.q2}, {&p.q3, &p.d2}, {&p.q2, &p.d2},
      {&p.q5, &p.q2}, {&p.q5, &p.d2}, {&p.q5, &p.d3}, {&p.q6, &p.q3}};
  for (const auto& [general, specific] : edges) {
    ASSERT_TRUE(general->covers(*specific));
    EXPECT_NE(general->signature(), 0u) << general->canonical();
    EXPECT_EQ(general->signature() & ~specific->signature(), 0u)
        << general->canonical() << " covers " << specific->canonical();
  }
}

TEST(QuerySignature, CorpusMsdsCarryBits) {
  // The filter only skips work when the wanted MSD has bits to test against.
  const biblio::Corpus corpus = biblio::Corpus::generate({.articles = 50, .authors = 20});
  for (const biblio::Article& a : corpus.articles()) {
    EXPECT_NE(a.msd().signature(), 0u) << a.msd().canonical();
  }
}

TEST(Covering, Figure3NonEdges) {
  const PaperQueries p;
  // q2 requires INFOCOM, so it does not cover q1 (SIGCOMM).
  EXPECT_FALSE(p.q2.covers(p.q1));
  // q4 (TCP) does not cover d2 (IPv6) or d3 (Wavelets).
  EXPECT_FALSE(p.q4.covers(p.d2));
  EXPECT_FALSE(p.q4.covers(p.d3));
  // q5 (INFOCOM) does not cover q1 (SIGCOMM).
  EXPECT_FALSE(p.q5.covers(p.q1));
  // q6 (Smith) does not cover d3 (Doe).
  EXPECT_FALSE(p.q6.covers(p.d3));
  // More specific never covers less specific.
  EXPECT_FALSE(p.q1.covers(p.q4));
  EXPECT_FALSE(p.q3.covers(p.q6));
  EXPECT_FALSE(p.q2.covers(p.q5));
}

TEST(Covering, ReflexiveOnAllPaperQueries) {
  const PaperQueries p;
  for (const Query* q : {&p.q1, &p.q2, &p.q3, &p.q4, &p.q5, &p.q6, &p.d2, &p.d3}) {
    EXPECT_TRUE(q->covers(*q)) << q->canonical();
  }
}

TEST(Covering, RootOnlyQueryCoversEverything) {
  const PaperQueries p;
  const Query any = Query::parse("/article");
  for (const Query* q : {&p.q1, &p.q2, &p.q3, &p.q4, &p.q5, &p.q6}) {
    EXPECT_TRUE(any.covers(*q));
    EXPECT_FALSE(q->covers(any));
  }
}

TEST(Covering, DifferentRootNeverCovers) {
  const Query a = Query::parse("/article/title/TCP");
  const Query b = Query::parse("/book/title/TCP");
  EXPECT_FALSE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
}

TEST(Covering, WildcardRootCoversAnyRoot) {
  const Query star = Query::parse("/*");
  EXPECT_TRUE(star.covers(Query::parse("/article/title/TCP")));
  EXPECT_TRUE(star.covers(Query::parse("/book/title/TCP")));
}

TEST(Covering, PresenceCoveredByValue) {
  const Query presence = Query::parse("/article[author/last=*]");
  const Query value = Query::parse("/article/author/last/Smith");
  EXPECT_TRUE(presence.covers(value));
  EXPECT_FALSE(value.covers(presence));
}

TEST(Covering, WildcardSegmentCoversConcreteSegment) {
  const Query wildcard = Query::parse("/article[*/last=Smith]");
  const Query concrete = Query::parse("/article/author/last/Smith");
  EXPECT_TRUE(wildcard.covers(concrete));
  EXPECT_FALSE(concrete.covers(wildcard));
}

TEST(Covering, DescendantCoversAnchored) {
  const Query floating = Query::parse("/article[//last/Smith]");
  const Query anchored = Query::parse("/article/author/last/Smith");
  EXPECT_TRUE(floating.covers(anchored));
  // An anchored constraint cannot cover a floating one: the floating query
  // can be satisfied at a different position.
  EXPECT_FALSE(anchored.covers(floating));
}

TEST(Covering, DescendantSuffixMatching) {
  const Query floating = Query::parse("/article[//last/Smith]");
  const Query deep = Query::parse("/article[editor/contact/last=Smith]");
  EXPECT_TRUE(floating.covers(deep));
  const Query other_leaf = Query::parse("/article[editor/contact/first=Smith]");
  EXPECT_FALSE(floating.covers(other_leaf));
}

TEST(ConstraintImplies, ValueRules) {
  Constraint smith;
  smith.path = {"author", "last"};
  smith.value = "Smith";
  Constraint presence;
  presence.path = {"author", "last"};
  Constraint doe = smith;
  doe.value = "Doe";
  // Views live in a query; each of these holds one constraint.
  const Query smith_q = Query{"article"}.add_constraint(smith);
  const Query presence_q = Query{"article"}.add_constraint(presence);
  const Query doe_q = Query{"article"}.add_constraint(doe);
  const auto only = [](const Query& q) { return q.constraints().front(); };
  EXPECT_TRUE(constraint_implies(only(smith_q), only(presence_q)));
  EXPECT_FALSE(constraint_implies(only(presence_q), only(smith_q)));
  EXPECT_FALSE(constraint_implies(only(doe_q), only(smith_q)));
  EXPECT_TRUE(constraint_implies(only(smith_q), only(smith_q)));
}

// Property tests over a generated family of queries.
class CoveringPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<Query> family(int seed) {
    // Sub-queries of one MSD: every subset of its constraints.
    const Query msd = Query::parse(
        "/article[author[first/F" + std::to_string(seed) + "][last/L" +
        std::to_string(seed) + "]][title/T][conf/C][year/Y]");
    const auto& cs = msd.constraints();
    std::vector<Query> out;
    for (std::size_t mask = 0; mask < (1u << cs.size()); ++mask) {
      std::vector<std::size_t> keep;
      for (std::size_t i = 0; i < cs.size(); ++i) {
        if (mask & (1u << i)) keep.push_back(i);
      }
      out.push_back(msd.keep_constraints(keep));
    }
    return out;
  }
};

TEST_P(CoveringPropertyTest, SubsetOfConstraintsIffCovers) {
  // For same-root conjunctive queries drawn from one MSD, covering must be
  // exactly the subset relation on constraints.
  const auto queries = family(GetParam());
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      bool subset = true;
      for (const auto& c : a.constraints()) {
        bool found = false;
        for (const auto& d : b.constraints()) {
          if (c == d) found = true;
        }
        if (!found) subset = false;
      }
      EXPECT_EQ(a.covers(b), subset) << a.canonical() << " vs " << b.canonical();
    }
  }
}

TEST_P(CoveringPropertyTest, Transitivity) {
  const auto queries = family(GetParam());
  // Sample triples (full cube is 32^3; take a stride).
  for (std::size_t i = 0; i < queries.size(); i += 3) {
    for (std::size_t j = 0; j < queries.size(); j += 2) {
      for (std::size_t k = 0; k < queries.size(); k += 3) {
        if (queries[i].covers(queries[j]) && queries[j].covers(queries[k])) {
          EXPECT_TRUE(queries[i].covers(queries[k]));
        }
      }
    }
  }
}

TEST_P(CoveringPropertyTest, AntisymmetryUpToCanonicalEquality) {
  const auto queries = family(GetParam());
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      if (a.covers(b) && b.covers(a)) {
        EXPECT_EQ(a.canonical(), b.canonical());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoveringPropertyTest, ::testing::Range(0, 4));

TEST(CoveringSemantics, CoversImpliesMatchSupersetOnConcreteDocs) {
  // Semantic check: if a covers b then every document matching b matches a.
  const xml::Element d1 = xml::parse(
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>");
  const xml::Element d2 = xml::parse(
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>IPv6</title><conf>INFOCOM</conf><year>1996</year></article>");
  const std::vector<Query> queries = {
      Query::parse("/article"),
      Query::parse("/article/author/last/Smith"),
      Query::parse("/article/author[first/John][last/Smith]"),
      Query::parse("/article/title/TCP"),
      Query::parse("/article/conf/INFOCOM"),
      Query::parse("/article[author/last=Smith][year=1996]"),
      Query::parse("/article[//last/Smith]"),
      Query::parse("/article[*/first=John]"),
  };
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      if (!a.covers(b)) continue;
      for (const xml::Element* doc : {&d1, &d2}) {
        if (b.matches(*doc)) {
          EXPECT_TRUE(a.matches(*doc))
              << a.canonical() << " covers " << b.canonical() << " but misses doc";
        }
      }
    }
  }
}

}  // namespace
}  // namespace dhtidx::query
