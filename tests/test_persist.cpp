// Snapshot persistence: save/load round-trips, cross-membership restore,
// covering enforcement against tampered snapshots.
#include "persist/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "biblio/corpus.hpp"
#include "common/error.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"

namespace dhtidx::persist {
namespace {

using query::Query;

struct World {
  explicit World(std::size_t nodes) : ring(dht::Ring::with_nodes(nodes)) {}
  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
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
    for (const auto& [source, targets, bytes] : state.entries()) {
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

}  // namespace
}  // namespace dhtidx::persist
