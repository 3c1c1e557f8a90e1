// Randomized property tests over the query algebra: for arbitrary queries
// and descriptors drawn from a shared vocabulary, the covering relation must
// be sound w.r.t. matching, canonicalization must round-trip, the
// generalization operators must behave monotonically, and the covering
// signature must never reject a query that covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "query/query.hpp"
#include "xml/node.hpp"

namespace dhtidx::query {
namespace {

constexpr const char* kFields[] = {"author/first", "author/last", "title", "conf",
                                   "year", "pages", "editor/last"};
constexpr const char* kValues[] = {"A", "B", "C", "Smith", "Doe", "TCP", "1996",
                                   "INFOCOM", "x y", "it's", "[odd]", "a=b", "*"};

/// A random conjunctive query over the shared vocabulary.
Query random_query(Rng& rng) {
  Query q{"article"};
  const int constraints = static_cast<int>(rng.next_in(0, 4));
  for (int i = 0; i < constraints; ++i) {
    const char* field = kFields[rng.next_index(std::size(kFields))];
    const double kind = rng.next_double();
    if (kind < 0.15) {
      q.add_presence(field);
    } else if (kind < 0.3) {
      std::string value = kValues[rng.next_index(std::size(kValues))];
      if (!value.empty()) q.add_prefix(field, value.substr(0, 1));
    } else {
      q.add_field(field, kValues[rng.next_index(std::size(kValues))]);
    }
  }
  return q;
}

/// A random descriptor assigning values to a subset of the fields.
xml::Element random_descriptor(Rng& rng) {
  xml::Element doc{"article"};
  xml::Element author{"author"};
  bool has_author = false;
  for (const char* field : kFields) {
    if (!rng.next_bool(0.7)) continue;
    const std::string value = kValues[rng.next_index(std::size(kValues))];
    const std::vector<std::string> parts = [&] {
      std::vector<std::string> out;
      std::string part;
      for (const char c : std::string{field}) {
        if (c == '/') {
          out.push_back(part);
          part.clear();
        } else {
          part.push_back(c);
        }
      }
      out.push_back(part);
      return out;
    }();
    if (parts.size() == 1) {
      doc.add_child(parts[0], value);
    } else if (parts[0] == "author") {
      author.add_child(parts[1], value);
      has_author = true;
    } else {
      xml::Element nested{parts[0]};
      nested.add_child(parts[1], value);
      doc.add_child(std::move(nested));
    }
  }
  if (has_author) doc.add_child(author);
  if (doc.children().empty()) doc.add_child("title", "fallback");
  return doc;
}

class QueryFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryFuzzTest, CoversIsSoundForMatching) {
  // If a covers b, then every document matching b matches a.
  Rng rng{GetParam()};
  std::vector<Query> queries;
  std::vector<xml::Element> docs;
  for (int i = 0; i < 12; ++i) queries.push_back(random_query(rng));
  for (int i = 0; i < 12; ++i) docs.push_back(random_descriptor(rng));
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      if (!a.covers(b)) continue;
      for (const xml::Element& doc : docs) {
        if (b.matches(doc)) {
          EXPECT_TRUE(a.matches(doc))
              << a.canonical() << " covers " << b.canonical()
              << " but misses a doc matching the latter";
        }
      }
    }
  }
}

TEST_P(QueryFuzzTest, MsdIsCoveredByEveryMatchingQuery) {
  Rng rng{GetParam() ^ 0xbeef};
  for (int i = 0; i < 20; ++i) {
    const xml::Element doc = random_descriptor(rng);
    const Query msd = Query::most_specific(doc);
    EXPECT_TRUE(msd.matches(doc));
    for (int j = 0; j < 10; ++j) {
      const Query q = random_query(rng);
      if (q.matches(doc)) {
        EXPECT_TRUE(q.covers(msd)) << q.canonical() << " matches the doc of "
                                   << msd.canonical() << " but does not cover its MSD";
      }
    }
  }
}

TEST_P(QueryFuzzTest, CanonicalRoundTripsThroughParser) {
  Rng rng{GetParam() ^ 0xc0de};
  for (int i = 0; i < 60; ++i) {
    const Query q = random_query(rng);
    const Query reparsed = Query::parse(q.canonical());
    EXPECT_EQ(reparsed, q) << q.canonical();
    EXPECT_EQ(reparsed.key(), q.key());
  }
}

TEST_P(QueryFuzzTest, DropOneGeneralizationsAlwaysCover) {
  Rng rng{GetParam() ^ 0xfeed};
  for (int i = 0; i < 40; ++i) {
    const Query q = random_query(rng);
    for (const Query& g : q.drop_one_generalizations()) {
      EXPECT_TRUE(g.covers(q)) << g.canonical() << " vs " << q.canonical();
    }
  }
}

TEST_P(QueryFuzzTest, CoveringIsTransitiveOnRandomTriples) {
  Rng rng{GetParam() ^ 0x7777};
  std::vector<Query> queries;
  for (int i = 0; i < 15; ++i) queries.push_back(random_query(rng));
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      if (!a.covers(b)) continue;
      for (const Query& c : queries) {
        if (b.covers(c)) {
          EXPECT_TRUE(a.covers(c)) << a.canonical() << " | " << b.canonical() << " | "
                                   << c.canonical();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest, ::testing::Range<std::uint64_t>(0, 12));

/// A random constraint of any kind the grammar has: exact, prefix (^=) or
/// presence-only values, "*" path steps, anchored or descendant (//) paths.
Constraint random_any_constraint(Rng& rng) {
  Constraint c;
  c.path = split(kFields[rng.next_index(std::size(kFields))], '/');
  for (std::string& step : c.path) {
    if (rng.next_bool(0.15)) step = "*";
  }
  if (rng.next_bool(0.15)) {
    c.descendant = true;
    if (c.path.size() > 1 && rng.next_bool(0.5)) c.path.erase(c.path.begin());
  }
  const std::string value = kValues[rng.next_index(std::size(kValues))];
  const double kind = rng.next_double();
  if (kind < 0.15) return c;  // presence-only
  if (kind < 0.3) {
    c.value = value.substr(0, 1 + rng.next_index(value.size()));
    c.value_is_prefix = true;
  } else {
    c.value = value;
  }
  return c;
}

/// A random query over every constraint kind, with a "*" root now and then
/// and some paths repeated with a second value.
Query random_any_query(Rng& rng) {
  Query q{rng.next_bool(0.1) ? "*" : "article"};
  const int constraints = static_cast<int>(rng.next_in(0, 5));
  for (int i = 0; i < constraints; ++i) {
    Constraint c = random_any_constraint(rng);
    q.add_constraint(c);
    if (c.value && rng.next_bool(0.2)) {
      c.value = kValues[rng.next_index(std::size(kValues))];
      q.add_constraint(std::move(c));
    }
  }
  return q;
}

/// A query that covers `q` in most draws: some constraints dropped, the rest
/// weakened (exact to prefix or presence, a step to "*", anchored to //),
/// and now and then the root widened to "*".
Query random_generalization(const Query& q, Rng& rng) {
  Query g{rng.next_bool(0.2) ? "*" : q.root()};
  for (const ConstraintView view : q.constraints()) {
    if (rng.next_bool(0.3)) continue;
    Constraint c = view.to_constraint();
    if (c.value && !c.value_is_prefix && rng.next_bool(0.2)) {
      c.value = c.value->substr(0, 1);
      c.value_is_prefix = true;
    } else if (c.value && rng.next_bool(0.1)) {
      c.value.reset();
      c.value_is_prefix = false;
    }
    if (rng.next_bool(0.1)) c.path[rng.next_index(c.path.size())] = "*";
    if (rng.next_bool(0.1)) c.descendant = true;
    g.add_constraint(std::move(c));
  }
  return g;
}

class QuerySignatureFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuerySignatureFuzz, CoversImpliesSignatureSubset) {
  // Query::signature filters covers(): whenever a covers b, a has no bit
  // outside b's signature. Checked in both directions of 10k draws (20k
  // ordered pairs); half the draws pair b with a generalization of itself so
  // covering pairs are common.
  Rng rng{GetParam() ^ 0x5169};
  std::size_t covering_with_bits = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    const Query b = random_any_query(rng);
    const Query a = i % 2 == 0 ? random_any_query(rng) : random_generalization(b, rng);
    for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
      const std::uint64_t outside = x->signature() & ~y->signature();
      if (x->covers(*y)) {
        EXPECT_EQ(outside, 0u) << x->canonical() << " covers " << y->canonical();
        if (x->signature() != 0) ++covering_with_bits;
      } else if (outside != 0) {
        ++rejected;
      }
    }
  }
  // Not vacuous: covering pairs carry bits, and the filter rejects many of
  // the pairs that do not cover.
  EXPECT_GT(covering_with_bits, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST_P(QuerySignatureFuzz, CanonicalFormIsTheQuerysIdentity) {
  // Over the same generator: two queries are equal exactly when their
  // canonical strings are, and exactly when their roots and constraint
  // values are; the canonical string parses back to the query; constraints()
  // come out strictly ascending under Constraint::operator<=>, and views
  // compare as the values they hold.
  Rng rng{GetParam() ^ 0x1d3a};
  const auto values = [](const Query& q) {
    std::vector<Constraint> out;
    for (const ConstraintView c : q.constraints()) out.push_back(c.to_constraint());
    return out;
  };
  std::size_t equal_pairs = 0;
  for (int i = 0; i < 4000; ++i) {
    const Query b = random_any_query(rng);
    const Query a = i % 2 == 0 ? random_any_query(rng) : random_generalization(b, rng);
    const std::vector<Constraint> av = values(a);
    const std::vector<Constraint> bv = values(b);
    const bool same_text = a.canonical() == b.canonical();
    EXPECT_EQ(a == b, same_text) << a.canonical() << " vs " << b.canonical();
    EXPECT_EQ(a.root() == b.root() && av == bv, same_text)
        << a.canonical() << " vs " << b.canonical();
    if (same_text) ++equal_pairs;
    for (const Query* q : {&a, &b}) {
      EXPECT_EQ(Query::parse(q->canonical()), *q) << q->canonical();
      const std::vector<Constraint>& v = q == &a ? av : bv;
      EXPECT_TRUE(std::adjacent_find(v.begin(), v.end(), [](const Constraint& x,
                                                            const Constraint& y) {
                    return !(x < y);
                  }) == v.end())
          << q->canonical();
    }
    for (std::size_t x = 0; x < av.size(); ++x) {
      for (std::size_t y = 0; y < bv.size(); ++y) {
        EXPECT_EQ(a.constraints()[x] <=> b.constraints()[y], av[x] <=> bv[y])
            << a.constraints()[x].text() << " vs " << b.constraints()[y].text();
      }
    }
  }
  EXPECT_GT(equal_pairs, 100u);  // not vacuous: the generalizations often equal b
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuerySignatureFuzz, ::testing::Range<std::uint64_t>(0, 4));

}  // namespace
}  // namespace dhtidx::query
