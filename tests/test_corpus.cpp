#include "biblio/corpus.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dht/ring.hpp"
#include "index/service.hpp"
#include "sim/sharded.hpp"
#include "storage/dht_store.hpp"
#include "xml/parser.hpp"

namespace dhtidx::biblio {
namespace {

TEST(Article, DescriptorHasPaperLayout) {
  Article a;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "TCP";
  a.conference = "SIGCOMM";
  a.year = 1989;
  a.file_bytes = 315635;
  const xml::Element doc = a.descriptor();
  EXPECT_EQ(doc.name(), "article");
  EXPECT_EQ(doc.child("author")->child("first")->text(), "John");
  EXPECT_EQ(doc.child("title")->text(), "TCP");
  EXPECT_EQ(doc.child("size")->text(), "315635");
}

TEST(Article, MsdMatchesOwnDescriptor) {
  Article a;
  a.first_name = "A";
  a.last_name = "B";
  a.title = "T";
  a.conference = "C";
  a.year = 2000;
  a.file_bytes = 10;
  EXPECT_TRUE(a.msd().matches(a.descriptor()));
  EXPECT_TRUE(a.msd().is_most_specific_of(a.descriptor()));
}

TEST(Article, PartialQueriesCoverMsd) {
  Article a;
  a.first_name = "A";
  a.last_name = "B";
  a.title = "T";
  a.conference = "C";
  a.year = 2000;
  for (const auto& q :
       {a.author_query(), a.title_query(), a.conference_query(), a.year_query(),
        a.author_title_query(), a.author_year_query(), a.conference_year_query(),
        a.author_conference_query(), a.author_conference_year_query()}) {
    EXPECT_TRUE(q.covers(a.msd())) << q.canonical();
    EXPECT_TRUE(q.matches(a.descriptor())) << q.canonical();
  }
}

TEST(Article, RoundTripThroughDescriptor) {
  Article a;
  a.first_name = "Maria";
  a.last_name = "Garcia";
  a.title = "Adaptive overlays";
  a.conference = "ICDCS";
  a.year = 2004;
  a.file_bytes = 123456;
  const Article parsed = article_from_descriptor(a.descriptor());
  EXPECT_EQ(parsed.first_name, a.first_name);
  EXPECT_EQ(parsed.last_name, a.last_name);
  EXPECT_EQ(parsed.title, a.title);
  EXPECT_EQ(parsed.conference, a.conference);
  EXPECT_EQ(parsed.year, a.year);
  EXPECT_EQ(parsed.file_bytes, a.file_bytes);
}

TEST(Article, FromDescriptorRejectsMalformedInput) {
  EXPECT_THROW(article_from_descriptor(xml::parse("<book><title>X</title></book>")),
               ParseError);
  EXPECT_THROW(article_from_descriptor(xml::parse("<article><title>X</title></article>")),
               ParseError);
  EXPECT_THROW(article_from_descriptor(xml::parse(
                   "<article><author><first>A</first><last>B</last></author>"
                   "<title>T</title><conf>C</conf><year>noise</year></article>")),
               ParseError);
}

TEST(Corpus, GeneratesRequestedSize) {
  CorpusConfig config;
  config.articles = 500;
  config.authors = 150;
  const Corpus corpus = Corpus::generate(config);
  EXPECT_EQ(corpus.size(), 500u);
}

TEST(Corpus, DeterministicForSameSeed) {
  CorpusConfig config;
  config.articles = 100;
  const Corpus a = Corpus::generate(config);
  const Corpus b = Corpus::generate(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.article(i), b.article(i));
  }
}

TEST(Corpus, DifferentSeedsDiffer) {
  CorpusConfig config;
  config.articles = 100;
  const Corpus a = Corpus::generate(config);
  config.seed = 43;
  const Corpus b = Corpus::generate(config);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a.article(i) == b.article(i))) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Corpus, TitlesAreUnique) {
  CorpusConfig config;
  config.articles = 2000;
  const Corpus corpus = Corpus::generate(config);
  std::set<std::string> titles;
  for (const Article& a : corpus.articles()) titles.insert(a.title);
  EXPECT_EQ(titles.size(), corpus.size());
}

TEST(Corpus, AuthorProductivityIsSkewed) {
  CorpusConfig config;
  config.articles = 3000;
  config.authors = 900;
  const Corpus corpus = Corpus::generate(config);
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const Article& a : corpus.articles()) {
    ++counts[{a.first_name, a.last_name}];
  }
  int max_count = 0;
  for (const auto& [author, count] : counts) max_count = std::max(max_count, count);
  const double mean = 3000.0 / static_cast<double>(counts.size());
  // Zipf productivity: the top author is far above the mean.
  EXPECT_GT(max_count, 5 * mean);
}

TEST(Corpus, YearsWithinConfiguredRange) {
  CorpusConfig config;
  config.articles = 1000;
  const Corpus corpus = Corpus::generate(config);
  for (const Article& a : corpus.articles()) {
    EXPECT_GE(a.year, config.first_year);
    EXPECT_LE(a.year, config.last_year);
  }
}

TEST(Corpus, FileSizesAverageNearMean) {
  CorpusConfig config;
  config.articles = 4000;
  const Corpus corpus = Corpus::generate(config);
  double total = 0;
  for (const Article& a : corpus.articles()) total += static_cast<double>(a.file_bytes);
  EXPECT_NEAR(total / 4000.0, 250000.0, 15000.0);
}

TEST(Corpus, DistinctCountsAreReasonable) {
  CorpusConfig config;
  config.articles = 2000;
  config.authors = 600;
  config.conferences = 40;
  const Corpus corpus = Corpus::generate(config);
  EXPECT_LE(corpus.distinct_authors(), 600u);
  EXPECT_GT(corpus.distinct_authors(), 200u);  // the Zipf tail is long
  EXPECT_LE(corpus.distinct_conferences(), 40u);
  EXPECT_GT(corpus.distinct_conferences(), 20u);
}

TEST(Corpus, ByAuthorFindsAllWorks) {
  CorpusConfig config;
  config.articles = 300;
  config.authors = 60;
  const Corpus corpus = Corpus::generate(config);
  const Article& a = corpus.article(0);
  const auto works = corpus.by_author(a.first_name, a.last_name);
  EXPECT_FALSE(works.empty());
  for (const Article* w : works) {
    EXPECT_EQ(w->first_name, a.first_name);
    EXPECT_EQ(w->last_name, a.last_name);
  }
}

TEST(Corpus, XmlRoundTrip) {
  CorpusConfig config;
  config.articles = 50;
  const Corpus original = Corpus::generate(config);
  const Corpus parsed = Corpus::from_xml(original.to_xml());
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed.article(i), original.article(i));
  }
}

TEST(Corpus, FromXmlRejectsNumbersWithSignsBlanksOrJunk) {
  // <size> and <year> hold plain decimal counts. A sign, an inner blank, a
  // unit or other trailing junk makes the descriptor malformed; it must not
  // load as a wrapped or truncated number. (Blanks around element text are
  // the XML layer's to trim.)
  const auto with = [](const std::string& year, const std::string& size) {
    return "<dblp><article><author><first>A</first><last>B</last></author>"
           "<title>T</title><conf>C</conf><year>" +
           year + "</year><size>" + size + "</size></article></dblp>";
  };
  ASSERT_EQ(Corpus::from_xml(with("2003", "12")).article(0).file_bytes, 12u);
  for (const std::string size : {"-1", "+1", "12kb", "1 2", "", "0x10",
                                 "18446744073709551616"}) {
    EXPECT_THROW(Corpus::from_xml(with("2003", size)), ParseError) << "size " << size;
  }
  for (const std::string year : {"2003junk", "-2003", "+2003", "20 03", "", "99999999999"}) {
    EXPECT_THROW(Corpus::from_xml(with(year, "12")), ParseError) << "year " << year;
  }
}

TEST(Corpus, FromXmlRejectsWrongRoot) {
  EXPECT_THROW(Corpus::from_xml("<library/>"), ParseError);
}

TEST(Corpus, RejectsZeroCounts) {
  CorpusConfig config;
  config.articles = 0;
  EXPECT_THROW(Corpus::generate(config), InvariantError);
}

/// Hostile variants of a corpus document, from a fixed seed: every
/// truncation of its first 4 KB, 6,000 one-byte flips, insertions and
/// deletions, and the field edits a tamperer would try.
std::vector<std::string> corpus_mutants(const std::string& document) {
  std::vector<std::string> mutants;
  for (std::size_t n = 0; n < std::min<std::size_t>(document.size(), 4096); ++n) {
    mutants.push_back(document.substr(0, n));
  }
  // Half the inserted bytes are ones the XML parser, the character-reference
  // decoder or the number parser gives a meaning to; the rest are arbitrary.
  constexpr std::string_view kSignificant = "<>/=\"'&#;x!?[]-+ 09";
  Rng rng{0xc0a905};
  for (int i = 0; i < 6000; ++i) {
    std::string mutant = document;
    const std::size_t pos = rng.next_index(mutant.size());
    switch (i % 3) {
      case 0:
        mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << rng.next_below(8)));
        break;
      case 1:
        mutant.insert(pos, 1,
                      rng.next_bool(0.5) ? kSignificant[rng.next_index(kSignificant.size())]
                                         : static_cast<char>(rng.next_below(256)));
        break;
      default:
        mutant.erase(pos, 1);
        break;
    }
    mutants.push_back(std::move(mutant));
  }

  // Field edits, each applied to the first occurrence of the element.
  const auto with_element = [&](std::string_view name, std::string_view replacement) {
    const std::string open = "<" + std::string{name} + ">";
    const std::string close = "</" + std::string{name} + ">";
    const std::size_t start = document.find(open);
    const std::size_t end = document.find(close, start) + close.size();
    std::string mutant = document;
    mutant.replace(start, end - start, replacement);
    return mutant;
  };
  const auto with_text = [&](std::string_view name, std::string_view text) {
    return with_element(name, "<" + std::string{name} + ">" + std::string{text} + "</" +
                                  std::string{name} + ">");
  };
  mutants.push_back(with_element("first", ""));
  mutants.push_back(with_element("last", ""));
  for (const std::string_view year :
       {"-2003", "+2003", "", " ", "20 03", "99999999999", "2003x"}) {
    mutants.push_back(with_text("year", year));
  }
  for (const std::string_view size : {"-1", "+1", "", " ", "1 2", "18446744073709551616",
                                      "99999999999999999999999", "12kb"}) {
    mutants.push_back(with_text("size", size));
  }
  for (const std::string_view title :
       {"&#;", "&#x;", "&#0;", "&#x110000;", "&#xD800;", "&#99999999999;", "&;", "&amp",
        "&bogus;", "T&#x5D;/article[", "]*^=//"}) {
    mutants.push_back(with_text("title", title));
  }
  return mutants;
}

TEST(CorpusMutation, EveryMutantLoadsOrThrowsTypedError) {
  // Corpus::from_xml reads untrusted descriptors, and the build places each
  // scheme mapping with no covers() check of its own: it relies on
  // IndexingScheme's rules covering by construction. Each mutant either
  // throws a dhtidx::Error subtype, or loads and then builds under every
  // evaluation scheme with each mapping covering its target and sitting on
  // its key's replica set.
  CorpusConfig config;
  config.articles = 5;
  config.authors = 4;
  config.conferences = 3;
  const std::string document = Corpus::generate(config).to_xml();
  ASSERT_GT(document.size(), 1000u);

  audit::Options options;
  options.check_reachability = false;
  options.check_acyclicity = false;
  options.check_cache_coherence = false;
  options.check_snapshot = false;
  options.check_replica_consistency = false;
  options.check_ledger = false;
  options.check_convergence = false;
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  const std::vector<std::string> mutants = corpus_mutants(document);
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    std::optional<Corpus> corpus;
    try {
      corpus.emplace(Corpus::from_xml(mutants[i]));
    } catch (const Error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as a non-dhtidx exception: " << e.what();
      continue;
    }
    ++loaded;
    for (const index::SchemeKind scheme :
         {index::SchemeKind::kSimple, index::SchemeKind::kComplex, index::SchemeKind::kFlat}) {
      sim::SimulationConfig world;
      world.nodes = 16;
      world.scheme = scheme;
      world.replication = 2;
      net::TrafficLedger ledger;
      dht::Ring ring = dht::Ring::with_nodes(world.nodes);
      storage::DhtStore store{ring, ledger, world.replication};
      index::IndexService service{ring, ledger, 0, world.replication};
      try {
        sim::build_world(world, ring, service, store, *corpus);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << " loaded but failed to build under "
                      << index::to_string(scheme) << ": " << e.what();
        continue;
      }
      const audit::Report report = audit::Auditor{ring, service, store, options}.run();
      EXPECT_EQ(report.section(audit::Invariant::kCovering).violations, 0u)
          << "mutant " << i << ", " << index::to_string(scheme);
      EXPECT_EQ(report.section(audit::Invariant::kPlacement).violations, 0u)
          << "mutant " << i << ", " << index::to_string(scheme);
    }
  }
  EXPECT_GT(loaded, 1000u);
  EXPECT_GT(rejected, 3000u);
}

}  // namespace
}  // namespace dhtidx::biblio
