// The state IndexNodeState keeps beside each mapping so lookups need not
// rescan posting lists: every entry's response-byte sum and every target's
// covering signature. Both must stay exact on each path that changes an
// index: add and republish, remove, soft-state expiry, churn repair and the
// sharded streaming build. The build-driver tests pin that the two build
// drivers place the same world and post the same frames, and the last test
// that a partition's storage order never shows.
#include "index/node_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "biblio/corpus.hpp"
#include "biblio/stream.hpp"
#include "common/error.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/service.hpp"
#include "net/bus.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"
#include "persist/snapshot.hpp"
#include "query/interner.hpp"
#include "sim/sharded.hpp"
#include "storage/dht_store.hpp"

namespace dhtidx::index {
namespace {

using query::Query;

/// `q`'s signature computed from scratch: the query rebuilt constraint by
/// constraint, with no cache carried over.
std::uint64_t recomputed_signature(const Query& q) {
  Query rebuilt{q.root()};
  for (const query::ConstraintView c : q.constraints()) rebuilt.add_constraint(c.to_constraint());
  return rebuilt.signature();
}

/// Every entry's byte sum equals the sum over its targets, and every stored
/// signature equals the target's recomputed one.
void expect_exact(const IndexNodeState& state) {
  for (const auto* entry : state.entries()) {
    const auto& [source, targets, bytes] = *entry;
    std::uint64_t sum = 0;
    for (const IndexNodeState::TargetRef& ref : targets) {
      sum += ref.target->byte_size();
      EXPECT_EQ(ref.signature, recomputed_signature(*ref.target))
          << source->canonical() << " -> " << ref.target->canonical();
    }
    EXPECT_EQ(bytes, sum) << source->canonical();
  }
}

/// expect_exact on every partition. Returns the number of mappings checked.
std::size_t expect_exact(const IndexService& service) {
  std::size_t mappings = 0;
  for (const auto& [node, state] : service.states()) {
    expect_exact(state);
    mappings += state.mapping_count();
  }
  return mappings;
}

TEST(EntryState, ExactThroughAddRemoveAndExpiry) {
  IndexNodeState state;
  query::QueryInterner pool;
  const Query* source = pool.intern(Query::parse("/article/conf/ICDCS"));
  const Query* a = pool.intern(Query::parse("/article[conf/ICDCS][year/2004]"));
  const Query* b = pool.intern(Query::parse("/article[conf/ICDCS][title^=T]"));
  const Query* c = pool.intern(Query::parse("/article[author/last/Smith][conf/ICDCS]"));
  const auto bytes = [&] { return state.entry_of(source).target_bytes; };

  EXPECT_TRUE(state.add(source, a, 1));
  EXPECT_TRUE(state.add(source, b, 2));
  EXPECT_TRUE(state.add(source, c, 3));
  expect_exact(state);
  EXPECT_EQ(bytes(), a->byte_size() + b->byte_size() + c->byte_size());
  EXPECT_NE(state.entry_of(source).targets.front().signature, 0u);

  // A republish only refreshes the stamp.
  EXPECT_FALSE(state.add(source, a, 5));
  expect_exact(state);
  EXPECT_EQ(bytes(), a->byte_size() + b->byte_size() + c->byte_size());

  bool source_now_empty = true;
  EXPECT_TRUE(state.remove(source, b, source_now_empty));
  EXPECT_FALSE(source_now_empty);
  expect_exact(state);
  EXPECT_EQ(bytes(), a->byte_size() + c->byte_size());

  // Stamps are now a=5, c=3.
  EXPECT_EQ(state.expire_older_than(4), 1u);
  expect_exact(state);
  EXPECT_EQ(bytes(), a->byte_size());
  EXPECT_EQ(state.expire_older_than(6), 1u);
  EXPECT_TRUE(state.entries().empty());
  EXPECT_EQ(bytes(), 0u);

  // A key that vanished and comes back starts its sum from zero.
  EXPECT_TRUE(state.add(source, b, 7));
  expect_exact(state);
  EXPECT_EQ(bytes(), b->byte_size());
}

TEST(EntryState, ExactThroughChurnRepair) {
  // Replication 2 over a materialized world. Losing one partition makes the
  // repair pass re-copy its mappings; a member leaving makes the migration
  // pass move its mappings to the new replica set.
  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(16);
  storage::DhtStore store{ring, ledger, 2};
  IndexService service{ring, ledger, /*cache_capacity=*/0, /*replication=*/2};
  IndexBuilder builder{service, store, IndexingScheme::complex()};
  const biblio::Corpus corpus = biblio::Corpus::generate({.articles = 80, .authors = 25});
  for (const biblio::Article& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }
  const std::size_t built = expect_exact(service);
  ASSERT_GT(built, 0u);

  const std::vector<Id> members = ring.node_ids();
  EXPECT_GT(service.drop_node(members[0]), 0u);
  ring.remove(members[1]);
  EXPECT_GT(service.rebalance(), 0u);
  EXPECT_EQ(expect_exact(service), built);
}

TEST(EntryState, ExactAfterShardedStreamingBuild) {
  for (const std::size_t shards : {1u, 2u}) {
    sim::SimulationConfig config;
    config.nodes = 48;
    config.corpus.articles = 300;
    config.corpus.authors = 90;
    config.corpus.conferences = 12;
    config.streaming = true;
    config.shards = shards;
    config.replication = 2;
    dht::Ring ring = dht::Ring::with_nodes(config.nodes);
    net::TrafficLedger ledger;
    storage::DhtStore store{ring, ledger, config.replication};
    IndexService service{ring, ledger, config.cache_capacity, config.replication};
    const biblio::ArticleStream stream{config.corpus};
    sim::build_streaming_world(config, ring, service, store, stream);
    EXPECT_GT(expect_exact(service), 0u) << "shards " << shards;
  }
}

/// Everything `node` holds, one line per index entry (source, byte sum, then
/// each target with its stamp and signature, in list order) and one per
/// stored record (key, kind, virtual bytes, payload), in the node's own order.
/// A node with no partition or store holds nothing.
std::vector<std::string> node_contents(const IndexService& service,
                                       const storage::DhtStore& store, const Id& node) {
  std::vector<std::string> lines;
  if (const IndexNodeState* state = service.find_state(node); state != nullptr) {
    for (const auto* entry : state->entries()) {
      const auto& [source, targets, bytes] = *entry;
      std::string line = source->canonical() + " bytes=" + std::to_string(bytes);
      for (const IndexNodeState::TargetRef& ref : targets) {
        line += " | " + ref.target->canonical() + " @" + std::to_string(ref.stamp) +
                " sig=" + std::to_string(ref.signature);
      }
      lines.push_back(std::move(line));
    }
  }
  if (const storage::NodeStore* records = store.find_node_store(node); records != nullptr) {
    for (const Id& key : records->keys()) {
      for (const storage::Record& r : records->get(key)) {
        lines.push_back(key.to_hex() + " " + r.kind + " " +
                        std::to_string(r.virtual_payload_bytes) + " " + r.payload);
      }
    }
  }
  return lines;
}

/// An event-queue wire layer that keeps the encoded bytes of every frame
/// sent, in send order.
class RecordedWire final : public net::Transport {
 public:
  RecordedWire() { queue.set_sink(&bus); }
  RecordedWire(const RecordedWire&) = delete;  // the bus and the queue hold its address
  RecordedWire& operator=(const RecordedWire&) = delete;

  const char* name() const override { return queue.name(); }
  std::uint64_t send(const net::Message& message) override {
    frames.push_back(net::codec::encode(message));
    return queue.send(message);
  }
  void pump() override { queue.pump(); }
  bool idle() const override { return queue.idle(); }
  void wait(double ms) override { queue.wait(ms); }

  void attach(IndexService& service, storage::DhtStore& store) {
    service.set_bus(&bus);
    store.set_bus(&bus);
  }

  net::EventQueueTransport queue;
  net::MessageBus bus{*this};
  std::vector<std::string> frames;
};

TEST(BuildDrivers, IndexFileAndShardedBuildPlaceTheSameWorld) {
  // The materialized driver (IndexBuilder::index_file, one placement at a
  // time) and the op pipeline (build_streaming_world, placements merged
  // across shards) must leave every node with the same entries and records.
  // At one shard, with a message bus on each side, they must also post the
  // same store, publish and replicate frames: the same bytes in the same
  // order, and the same virtual clock once each bus is synced. The
  // 9,000-article corpus is more than one build epoch (8,192 articles), so
  // the pipeline resets its epoch buffers between two epochs.
  const struct {
    std::size_t articles;
    std::size_t replication;
  } inputs[] = {{2000, 1}, {2000, 3}, {9000, 1}};
  for (const auto& [articles, replication] : inputs) {
    SCOPED_TRACE(std::to_string(articles) + " articles");
    sim::SimulationConfig config;
    config.nodes = 64;
    config.corpus.articles = articles;
    config.scheme = SchemeKind::kComplex;
    config.replication = replication;
    const biblio::ArticleStream stream{config.corpus};

    net::TrafficLedger ledger;
    dht::Ring ring = dht::Ring::with_nodes(config.nodes);
    storage::DhtStore store{ring, ledger, replication};
    IndexService service{ring, ledger, config.cache_capacity, replication};
    RecordedWire wire;
    wire.attach(service, store);
    IndexBuilder builder{service, store, IndexingScheme::make(config.scheme)};
    BuildStats stats;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const biblio::Article article = stream.article(i);
      builder.index_file(article.descriptor(), article.file_name(), article.file_bytes,
                         &stats);
    }
    wire.bus.sync();
    ASSERT_GT(service.totals().mappings, stream.size());
    ASSERT_EQ(store.total_records(), stream.size() * replication);
    // One frame per record copy and one per mapping copy.
    ASSERT_EQ(wire.bus.posts(), (stats.files + stats.mappings_inserted) * replication);

    for (const std::size_t shards : {1u, 2u}) {
      config.streaming = true;
      config.shards = shards;
      net::TrafficLedger sharded_ledger;
      storage::DhtStore sharded_store{ring, sharded_ledger, replication};
      IndexService sharded{ring, sharded_ledger, config.cache_capacity, replication};
      std::optional<RecordedWire> sharded_wire;
      if (shards == 1) sharded_wire.emplace().attach(sharded, sharded_store);
      sim::build_streaming_world(config, ring, sharded, sharded_store, stream);
      if (sharded_wire) {
        sharded_wire->bus.sync();
        EXPECT_EQ(sharded_wire->bus.posts(), wire.bus.posts())
            << "replication " << replication;
        EXPECT_EQ(sharded_wire->queue.clock_ms(), wire.queue.clock_ms())
            << "replication " << replication;
        ASSERT_EQ(sharded_wire->frames.size(), wire.frames.size())
            << "replication " << replication;
        for (std::size_t f = 0; f < wire.frames.size(); ++f) {
          if (sharded_wire->frames[f] != wire.frames[f]) {
            ADD_FAILURE() << "replication " << replication << ": frame " << f
                          << " of " << wire.frames.size() << " differs";
            break;
          }
        }
      }
      for (const Id& node : ring.node_ids()) {
        EXPECT_EQ(node_contents(service, store, node),
                  node_contents(sharded, sharded_store, node))
            << "replication " << replication << ", shards " << shards << ", node "
            << node.brief();
      }
    }
  }
}

TEST(BuildDrivers, ABuildWithABusRunsOnOneShard) {
  // MessageBus is single-threaded, so the pipeline refuses to post from
  // several appliers.
  sim::SimulationConfig config;
  config.nodes = 8;
  config.corpus.articles = 10;
  config.streaming = true;
  config.shards = 2;
  const biblio::ArticleStream stream{config.corpus};
  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(config.nodes);
  storage::DhtStore store{ring, ledger};
  IndexService service{ring, ledger};
  RecordedWire wire;
  wire.attach(service, store);
  EXPECT_THROW(sim::build_streaming_world(config, ring, service, store, stream),
               InvariantError);
  EXPECT_EQ(wire.bus.posts(), 0u);
}

/// A world of 400 articles indexed by index_file at r = 2. With
/// `reverse_interned` the pool first interns every query of the corpus in
/// reverse canonical order, so its refs order differently by address from
/// those of a world that interns each query when it is first published.
struct IndexedWorld {
  IndexedWorld(const biblio::Corpus& corpus, bool reverse_interned)
      : ring(dht::Ring::with_nodes(32)),
        store(ring, ledger, 2),
        service(ring, ledger, /*cache_capacity=*/0, /*replication=*/2) {
    if (reverse_interned) {
      std::vector<Query> queries;
      for (const biblio::Article& a : corpus.articles()) {
        queries.push_back(a.msd());
        for (const Mapping& m : scheme.mappings_for(queries.back())) {
          queries.push_back(m.source);
          queries.push_back(m.target);
        }
      }
      std::sort(queries.begin(), queries.end());
      for (auto q = queries.rbegin(); q != queries.rend(); ++q) service.interner().intern(*q);
    }
    IndexBuilder builder{service, store, scheme};
    for (const biblio::Article& a : corpus.articles()) {
      builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
    }
  }

  std::string audit_text() {
    audit::Options options;
    options.scheme = &scheme;
    return audit::Auditor{ring, service, store, options}.run().to_text();
  }

  const IndexingScheme scheme = IndexingScheme::simple();
  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store;
  IndexService service;
};

/// Every observer of the two worlds reads the same: node contents (entries
/// with their targets, stamps and signatures, then records), the snapshot
/// text and the audit report.
void expect_same_observations(IndexedWorld& a, IndexedWorld& b) {
  ASSERT_EQ(a.ring.node_ids(), b.ring.node_ids());
  for (const Id& node : a.ring.node_ids()) {
    EXPECT_EQ(node_contents(a.service, a.store, node), node_contents(b.service, b.store, node))
        << "node " << node.brief();
  }
  EXPECT_EQ(persist::save_snapshot(a.service, a.store),
            persist::save_snapshot(b.service, b.store));
  EXPECT_EQ(a.audit_text(), b.audit_text());
}

TEST(EntryState, StorageOrderIsNeverObservable) {
  // A partition stores its entries ordered by pool ref, which depends on
  // the order the pool interned its queries. entries() must still hand out
  // canonical order, so two worlds with the same mappings and differently
  // ordered refs look the same to every observer, before and after churn.
  const biblio::Corpus corpus =
      biblio::Corpus::generate({.articles = 400, .authors = 120, .conferences = 12});
  IndexedWorld a{corpus, /*reverse_interned=*/false};
  IndexedWorld b{corpus, /*reverse_interned=*/true};

  // The test proves nothing unless some two sources order differently by
  // address in the two pools.
  std::vector<std::pair<const Query*, const Query*>> sources;  // (in a, in b)
  for (const auto& [node, state] : a.service.states()) {
    for (const IndexNodeState::SourceEntry* entry : state.entries()) {
      const Query* in_b = b.service.interner().find_existing(*entry->source);
      ASSERT_NE(in_b, nullptr) << entry->source->canonical();
      sources.emplace_back(entry->source, in_b);
    }
  }
  const std::less<const Query*> before;
  std::sort(sources.begin(), sources.end(),
            [&](const auto& x, const auto& y) { return before(x.first, y.first); });
  ASSERT_FALSE(std::is_sorted(sources.begin(), sources.end(), [&](const auto& x, const auto& y) {
    return before(x.second, y.second);
  })) << sources.size() << " sources order alike in both pools";
  expect_same_observations(a, b);

  for (IndexedWorld* world : {&a, &b}) {
    const std::vector<Id> members = world->ring.node_ids();
    for (std::size_t i = 0; i < members.size(); i += 3) world->ring.remove(members[i]);
    world->store.rebalance();
  }
  const std::size_t repaired = a.service.rebalance();
  EXPECT_GT(repaired, 0u);
  EXPECT_EQ(b.service.rebalance(), repaired);
  expect_same_observations(a, b);
}

}  // namespace
}  // namespace dhtidx::index
