// Snapshot persistence: save/load round-trips, cross-membership restore,
// covering enforcement against tampered snapshots, and a mutation suite of
// hostile snapshots.
#include "persist/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "biblio/corpus.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"

namespace dhtidx::persist {
namespace {

using query::Query;

struct World {
  explicit World(std::size_t nodes, std::size_t replication = 1)
      : ring(dht::Ring::with_nodes(nodes)),
        store{ring, ledger, replication},
        service{ring, ledger, /*cache_capacity=*/0, replication} {}
  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store;
  index::IndexService service;
};

biblio::Corpus small_corpus() {
  biblio::CorpusConfig config;
  config.articles = 40;
  config.authors = 15;
  config.conferences = 6;
  return biblio::Corpus::generate(config);
}

void build(World& w, const biblio::Corpus& corpus) {
  index::IndexBuilder builder{w.service, w.store, index::IndexingScheme::simple()};
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }
}

TEST(Snapshot, RoundTripPreservesEverything) {
  const biblio::Corpus corpus = small_corpus();
  World original{20};
  build(original, corpus);
  const std::string xml = save_snapshot(original.service, original.store);

  World restored{20};
  const LoadStats stats = load_snapshot(xml, restored.service, restored.store);
  EXPECT_EQ(stats.mappings, original.service.totals().mappings);
  EXPECT_EQ(stats.records, original.store.total_records());
  EXPECT_EQ(restored.service.totals().mappings, original.service.totals().mappings);
  EXPECT_EQ(restored.service.totals().keys, original.service.totals().keys);
  EXPECT_EQ(restored.store.total_records(), original.store.total_records());

  // Every article is still resolvable in the restored world.
  index::LookupEngine engine{restored.service, restored.store,
                             {index::CachePolicy::kNone}};
  for (const auto& a : corpus.articles()) {
    EXPECT_TRUE(engine.resolve(a.author_query(), a.msd()).found) << a.title;
  }
}

TEST(Snapshot, RoundTripKeepsEveryNodesRecordsUnderReplication) {
  // The snapshot holds one <record> per stored copy. A load that puts each of
  // them to every replica grows records r-fold: 80 -> 160 at r = 2 and
  // 120 -> 360 at r = 3.
  const biblio::Corpus corpus = small_corpus();
  for (const std::size_t replication : {1u, 2u, 3u}) {
    SCOPED_TRACE("replication " + std::to_string(replication));
    World original{20, replication};
    build(original, corpus);
    World restored{20, replication};
    const LoadStats stats = load_snapshot(save_snapshot(original.service, original.store),
                                          restored.service, restored.store);
    EXPECT_EQ(stats.records, original.store.total_records());
    EXPECT_EQ(restored.store.total_records(), original.store.total_records());
    EXPECT_EQ(restored.store.node_stores().size(), original.store.node_stores().size());
    for (const auto& [node, node_store] : original.store.node_stores()) {
      const storage::NodeStore* copy = restored.store.find_node_store(node);
      ASSERT_NE(copy, nullptr) << node.brief();
      EXPECT_EQ(copy->record_count(), node_store.record_count()) << node.brief();
      EXPECT_TRUE(copy->keys() == node_store.keys()) << node.brief();
      for (const Id& key : node_store.keys()) {
        EXPECT_TRUE(copy->get(key) == node_store.get(key)) << node.brief() << " " << key.brief();
      }
    }
  }
}

TEST(Snapshot, RoundTripKeepsValuesWithEdgeWhitespace) {
  // The snapshot stores canonical strings and load_snapshot parses them, so
  // a value with a leading or trailing blank must come back unchanged: the
  // restored pool holds the same MSD, under the same key.
  biblio::Article a;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = " Leading blank";
  a.conference = "INFOCOM ";
  a.year = 1996;
  World original{10};
  index::IndexBuilder builder{original.service, original.store, index::IndexingScheme::simple()};
  builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);

  World restored{10};
  load_snapshot(save_snapshot(original.service, original.store), restored.service,
                restored.store);
  EXPECT_NE(restored.service.interner().find_existing(a.msd()), nullptr);
  EXPECT_EQ(restored.service.totals().keys, original.service.totals().keys);
  index::LookupEngine engine{restored.service, restored.store, {index::CachePolicy::kNone}};
  EXPECT_TRUE(engine.resolve(a.author_query(), a.msd()).found);
  EXPECT_TRUE(engine.resolve(a.title_query(), a.msd()).found);
}

TEST(Snapshot, RestoreUnderDifferentMembership) {
  // A snapshot taken on a 20-node network restores onto a 35-node network:
  // entries re-place through the new DHT automatically.
  const biblio::Corpus corpus = small_corpus();
  World original{20};
  build(original, corpus);
  const std::string xml = save_snapshot(original.service, original.store);

  World bigger{35};
  load_snapshot(xml, bigger.service, bigger.store);
  index::LookupEngine engine{bigger.service, bigger.store, {index::CachePolicy::kNone}};
  for (const auto& a : corpus.articles()) {
    EXPECT_TRUE(engine.resolve(a.title_query(), a.msd()).found) << a.title;
  }
  // Placement matches the new ring.
  for (const auto& [node, state] : bigger.service.states()) {
    for (const auto* entry : state.entries()) {
      const auto& [source, targets, bytes] = *entry;
      EXPECT_EQ(bigger.ring.successor(source->key()), node);
    }
  }
}

TEST(Snapshot, VirtualBytesSurvive) {
  World w{10};
  index::IndexBuilder builder{w.service, w.store, index::IndexingScheme::simple()};
  biblio::Article a;
  a.first_name = "A";
  a.last_name = "B";
  a.title = "T";
  a.conference = "C";
  a.year = 2000;
  a.file_bytes = 123456;
  builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  const std::string xml = save_snapshot(w.service, w.store);

  World restored{10};
  load_snapshot(xml, restored.service, restored.store);
  const auto got = restored.store.get(a.msd().key());
  ASSERT_EQ(got.records->size(), 1u);
  EXPECT_EQ((*got.records)[0].virtual_payload_bytes, 123456u);
  EXPECT_EQ((*got.records)[0].kind, "file:" + a.file_name());
}

TEST(Snapshot, VirtualBytesMustBeAPlainCount) {
  // A sign, blanks or trailing junk in virtual-bytes make the snapshot
  // malformed: none may load as a wrapped or truncated size, which would
  // corrupt the store's total_bytes().
  World w{10};
  w.store.put(Id::hash("k"), storage::Record{"file:k", "payload", 1000});
  const std::string xml = save_snapshot(w.service, w.store);
  const std::string attribute = "virtual-bytes=\"1000\"";
  ASSERT_NE(xml.find(attribute), std::string::npos);
  for (const std::string value : {"-1", "+1", " 1", "1 ", "12kb", "0x10", "",
                                  "18446744073709551616"}) {
    std::string mutant = xml;
    mutant.replace(mutant.find(attribute), attribute.size(),
                   "virtual-bytes=\"" + value + "\"");
    World restored{10};
    EXPECT_THROW(load_snapshot(mutant, restored.service, restored.store), ParseError)
        << "virtual-bytes=\"" << value << "\"";
  }
}

TEST(Snapshot, EmptyWorldRoundTrips) {
  World w{5};
  const std::string xml = save_snapshot(w.service, w.store);
  World restored{5};
  const LoadStats stats = load_snapshot(xml, restored.service, restored.store);
  EXPECT_EQ(stats.mappings, 0u);
  EXPECT_EQ(stats.records, 0u);
}

TEST(Snapshot, MalformedInputRejected) {
  World w{5};
  EXPECT_THROW(load_snapshot("<wrong/>", w.service, w.store), ParseError);
  EXPECT_THROW(load_snapshot("<dhtidx-snapshot><index><mapping/></index></dhtidx-snapshot>",
                             w.service, w.store),
               ParseError);
  EXPECT_THROW(load_snapshot("not xml at all", w.service, w.store), ParseError);
}

TEST(Snapshot, TamperedMappingRejectedByCoveringCheck) {
  // A snapshot that aliases a Doe key to a Smith article is refused on load:
  // the resilience-to-arbitrary-linking property survives persistence.
  World w{5};
  const std::string tampered =
      "<dhtidx-snapshot><index>"
      "<mapping source=\"/article[author/last=Doe]\" "
      "target=\"/article[author/first=John][author/last=Smith][title=TCP]\"/>"
      "</index></dhtidx-snapshot>";
  EXPECT_THROW(load_snapshot(tampered, w.service, w.store), InvariantError);
}

TEST(Snapshot, FileRoundTrip) {
  const biblio::Corpus corpus = small_corpus();
  World w{10};
  build(w, corpus);
  const std::string path = "/tmp/dhtidx-snapshot-test.xml";
  save_snapshot_file(path, w.service, w.store);

  World restored{10};
  const LoadStats stats = load_snapshot_file(path, restored.service, restored.store);
  EXPECT_EQ(stats.records, w.store.total_records());
  std::remove(path.c_str());
  EXPECT_THROW(load_snapshot_file("/nonexistent/nope.xml", restored.service, restored.store),
               Error);
}

/// Hostile variants of `snapshot`, from a fixed seed: every truncation of its
/// first 4 KB, 3,000 one-byte flips, insertions and deletions, and the
/// attribute edits a tamperer would try.
std::vector<std::string> snapshot_mutants(const std::string& snapshot) {
  std::vector<std::string> mutants;
  for (std::size_t n = 0; n < std::min<std::size_t>(snapshot.size(), 4096); ++n) {
    mutants.push_back(snapshot.substr(0, n));
  }
  // Half the inserted bytes are ones the XML, query and hex parsers give a
  // meaning to; the rest are arbitrary.
  constexpr std::string_view kSignificant = "<>/=\"'&#;x[]*^.0a ";
  Rng rng{0x5eed};
  for (int i = 0; i < 3000; ++i) {
    std::string mutant = snapshot;
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

  // Attribute edits, each applied to the first occurrence.
  const auto attribute = [&](std::string_view name) {
    const std::size_t start = snapshot.find(std::string{name} + "=\"") + name.size() + 2;
    return std::pair{start, snapshot.find('"', start) - start};
  };
  const auto with_value = [&](std::string_view name, std::string_view value) {
    const auto [start, length] = attribute(name);
    std::string mutant = snapshot;
    mutant.replace(start, length, value);
    return mutant;
  };
  const auto [source_at, source_length] = attribute("source");
  const auto [target_at, target_length] = attribute("target");
  const std::string source = snapshot.substr(source_at, source_length);
  const std::string target = snapshot.substr(target_at, target_length);
  std::string swapped = snapshot;
  swapped.replace(target_at, target_length, source);
  swapped.replace(source_at, source_length, target);
  mutants.push_back(std::move(swapped));
  for (const std::string_view value :
       {"", "/", "*", "/article[", "/article]", "/article[year/&#;]", "/article[x^=&#x;]"}) {
    mutants.push_back(with_value("source", value));
    mutants.push_back(with_value("target", value));
  }
  for (const std::string_view value : {"", "0", "zz00000000000000000000000000000000000000",
                                        "00000000000000000000000000000000000000000", "&#0;",
                                        "&;"}) {
    mutants.push_back(with_value("key", value));
  }
  for (const std::string_view value :
       {"", "abc", "-1", "+1", " 1", "12kb", "1e9", "99999999999999999999999"}) {
    mutants.push_back(with_value("virtual-bytes", value));
  }
  mutants.push_back(with_value("kind", "&#x110000;"));
  return mutants;
}

TEST(SnapshotMutation, EveryMutantLoadsCleanOrThrowsTypedError) {
  // load_snapshot places through IndexService::insert and DhtStore::ensure,
  // so a hostile snapshot drives the one placement path and xml::parse. Each
  // mutant either loads, and then every mapping covers its target and sits
  // on its key's replica set, or throws a dhtidx::Error subtype.
  biblio::CorpusConfig config;
  config.articles = 8;
  config.authors = 6;
  config.conferences = 3;
  World original{16, /*replication=*/2};
  build(original, biblio::Corpus::generate(config));
  const std::string snapshot = save_snapshot(original.service, original.store);
  ASSERT_GT(snapshot.size(), 4096u);

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
  const std::vector<std::string> mutants = snapshot_mutants(snapshot);
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    World restored{16, /*replication=*/2};
    try {
      load_snapshot(mutants[i], restored.service, restored.store);
    } catch (const Error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as a non-dhtidx exception: " << e.what();
      continue;
    }
    ++loaded;
    const audit::Report report =
        audit::Auditor{restored.ring, restored.service, restored.store, options}.run();
    EXPECT_EQ(report.section(audit::Invariant::kCovering).violations, 0u) << "mutant " << i;
    EXPECT_EQ(report.section(audit::Invariant::kPlacement).violations, 0u) << "mutant " << i;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 4000u);
}

}  // namespace
}  // namespace dhtidx::persist
