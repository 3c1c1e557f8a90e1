// Storage replication over the DHT's replica sets (Section IV-D), and the one
// placement rule (dht::candidate_nodes / dht::write_nodes) the store and the
// index share.
#include <gtest/gtest.h>

#include <algorithm>

#include "dht/chord.hpp"
#include "dht/ring.hpp"
#include "index/service.hpp"
#include "net/bus.hpp"
#include "net/transport.hpp"
#include "storage/dht_store.hpp"

namespace dhtidx::storage {
namespace {

Record make_record(const std::string& payload) {
  Record r;
  r.kind = "test";
  r.payload = payload;
  return r;
}

TEST(ReplicaSet, DefaultIsPrimaryOnly) {
  // The base-class default gives no redundancy.
  class MinimalDht : public dht::Dht {
   public:
    dht::LookupResult lookup(const Id&) override { return {Id::hash("only"), 0}; }
    std::vector<Id> node_ids() const override { return {Id::hash("only")}; }
    std::size_t size() const override { return 1; }
  } dht;
  EXPECT_EQ(dht.replica_set(Id::hash("k"), 3).size(), 1u);
}

TEST(ReplicaSet, RingReturnsClockwiseSuccessors) {
  dht::Ring ring;
  const Id n10 = Id::from_uint64(10);
  const Id n20 = Id::from_uint64(20);
  const Id n30 = Id::from_uint64(30);
  ring.add(n10);
  ring.add(n20);
  ring.add(n30);
  const auto replicas = ring.replica_set(Id::from_uint64(15), 2);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0], n20);
  EXPECT_EQ(replicas[1], n30);
  // Wrap-around.
  const auto wrapped = ring.replica_set(Id::from_uint64(25), 3);
  ASSERT_EQ(wrapped.size(), 3u);
  EXPECT_EQ(wrapped[0], n30);
  EXPECT_EQ(wrapped[1], n10);
  EXPECT_EQ(wrapped[2], n20);
}

TEST(ReplicaSet, RingClampsToMembership) {
  dht::Ring ring = dht::Ring::with_nodes(3);
  EXPECT_EQ(ring.replica_set(Id::hash("k"), 10).size(), 3u);
}

TEST(ReplicaSet, ChordUsesSuccessorList) {
  dht::ChordNetwork net{5};
  for (int i = 0; i < 10; ++i) {
    net.add_node("n" + std::to_string(i));
    net.stabilize_round();
    net.stabilize_round();
  }
  ASSERT_GE(net.stabilize_until_converged(), 0);
  dht::Ring oracle;
  for (const Id& id : net.node_ids()) oracle.add(id);
  const Id key = Id::hash("replicated-key");
  const auto replicas = net.replica_set(key, 3);
  const auto expected = oracle.replica_set(key, 3);
  EXPECT_EQ(replicas, expected);
}

class ReplicatedStoreTest : public ::testing::Test {
 protected:
  dht::Ring ring_ = dht::Ring::with_nodes(12);
  net::TrafficLedger ledger_;
  DhtStore store_{ring_, ledger_, /*replication=*/3};
};

TEST_F(ReplicatedStoreTest, PutWritesAllReplicas) {
  const Id key = Id::hash("k");
  store_.put(key, make_record("v"));
  const auto replicas = ring_.replica_set(key, 3);
  for (const Id& replica : replicas) {
    EXPECT_EQ(store_.node_store(replica).get(key).size(), 1u) << replica.brief();
  }
  EXPECT_EQ(store_.total_records(), 3u);
}

TEST_F(ReplicatedStoreTest, GetPrefersPrimary) {
  const Id key = Id::hash("k");
  store_.put(key, make_record("v"));
  const auto result = store_.get(key);
  EXPECT_EQ(result.node, ring_.successor(key));
  EXPECT_EQ(result.replicas_tried, 1);
  ASSERT_EQ(result.records->size(), 1u);
}

TEST_F(ReplicatedStoreTest, SurvivesPrimaryDataLoss) {
  const Id key = Id::hash("k");
  store_.put(key, make_record("precious"));
  const Id primary = ring_.successor(key);
  EXPECT_GT(store_.drop_node(primary), 0u);
  const auto result = store_.get(key);
  ASSERT_EQ(result.records->size(), 1u);
  EXPECT_EQ((*result.records)[0].payload, "precious");
  EXPECT_GT(result.replicas_tried, 1);
  EXPECT_NE(result.node, primary);
}

TEST_F(ReplicatedStoreTest, SurvivesTwoReplicaLosses) {
  const Id key = Id::hash("k2");
  store_.put(key, make_record("still-here"));
  const auto replicas = ring_.replica_set(key, 3);
  store_.drop_node(replicas[0]);
  store_.drop_node(replicas[1]);
  const auto result = store_.get(key);
  ASSERT_EQ(result.records->size(), 1u);
  EXPECT_EQ(result.node, replicas[2]);
}

TEST_F(ReplicatedStoreTest, LosingAllReplicasLosesData) {
  const Id key = Id::hash("k3");
  store_.put(key, make_record("gone"));
  for (const Id& replica : ring_.replica_set(key, 3)) store_.drop_node(replica);
  EXPECT_TRUE(store_.get(key).records->empty());
}

TEST_F(ReplicatedStoreTest, RemoveClearsAllReplicas) {
  const Id key = Id::hash("k4");
  store_.put(key, make_record("v"));
  EXPECT_TRUE(store_.remove(key, make_record("v")).removed);
  EXPECT_EQ(store_.total_records(), 0u);
}

TEST_F(ReplicatedStoreTest, ReplicationCostsProportionalTraffic) {
  ledger_.reset();
  store_.put(Id::hash("k5"), make_record("v"));
  EXPECT_EQ(ledger_.queries.messages(), 3u);
}

TEST_F(ReplicatedStoreTest, RebalanceKeepsReplicaPlacementsAndDedupes) {
  const Id key = Id::hash("k6");
  store_.put(key, make_record("v"));
  // Membership change: new nodes take over part of the circle.
  for (int i = 0; i < 6; ++i) ring_.add(Id::hash("fresh-" + std::to_string(i)));
  store_.rebalance();
  // Every remaining copy sits inside the (new) replica set, and the primary
  // holds exactly one copy (no duplicates).
  const auto replicas = ring_.replica_set(key, 3);
  std::size_t copies = 0;
  for (const auto& [node, node_store] : store_.node_stores()) {
    const auto& records = node_store.get(key);
    copies += records.size();
    if (!records.empty()) {
      EXPECT_NE(std::find(replicas.begin(), replicas.end(), node), replicas.end())
          << node.brief();
    }
  }
  EXPECT_GE(copies, 1u);
  EXPECT_LE(copies, 3u);
  const auto result = store_.get(key);
  EXPECT_EQ(result.records->size(), 1u);
}

TEST_F(ReplicatedStoreTest, RebalanceRepairsDegradedReplication) {
  // Losing a replica's disk leaves records one copy short; rebalance()
  // re-creates the missing copies at the key's full replica set.
  const Id key = Id::hash("repairable");
  store_.put(key, make_record("v"));
  const auto replicas = ring_.replica_set(key, 3);
  store_.drop_node(replicas[1]);
  std::size_t copies = 0;
  for (const auto& [node, ns] : store_.node_stores()) copies += ns.get(key).size();
  EXPECT_EQ(copies, 2u);
  EXPECT_GT(store_.rebalance(), 0u);
  copies = 0;
  for (const auto& [node, ns] : store_.node_stores()) copies += ns.get(key).size();
  EXPECT_EQ(copies, 3u);
  for (const Id& replica : replicas) {
    EXPECT_EQ(store_.node_store(replica).get(key).size(), 1u) << replica.brief();
  }
  // Idempotent.
  EXPECT_EQ(store_.rebalance(), 0u);
}

TEST(ReplicatedStoreDefault, FactorOneBehavesAsBefore) {
  dht::Ring ring = dht::Ring::with_nodes(8);
  net::TrafficLedger ledger;
  DhtStore store{ring, ledger};
  EXPECT_EQ(store.replication(), 1u);
  const Id key = Id::hash("k");
  store.put(key, make_record("v"));
  EXPECT_EQ(store.total_records(), 1u);
}

/// A Ring behind a Dht that counts every substrate call.
class CountingDht : public dht::Dht {
 public:
  explicit CountingDht(dht::Ring& ring) : ring_(ring) {}
  dht::LookupResult lookup(const Id& key) override {
    ++calls;
    return ring_.lookup(key);
  }
  std::vector<Id> replica_set(const Id& key, std::size_t count) override {
    ++calls;
    return ring_.replica_set(key, count);
  }
  std::vector<Id> node_ids() const override { return ring_.node_ids(); }
  std::size_t size() const override { return ring_.size(); }

  std::size_t calls = 0;

 private:
  dht::Ring& ring_;
};

/// Records every node a delivery is attempted to.
class RecordingInjector : public net::FailureInjector {
 public:
  void check_delivery(const Id& target) override {
    attempted.push_back(target);
    FailureInjector::check_delivery(target);
  }
  std::vector<Id> attempted;
};

/// Records the destination of every request frame sent.
class RecordingTransport : public net::EventQueueTransport {
 public:
  std::uint64_t send(const net::Message& message) override {
    if (message.context == net::Context::kRequest) requested.push_back(message.to);
    return EventQueueTransport::send(message);
  }
  std::vector<Id> requested;
};

/// The nodes whose store holds a record under `key`, each checked to hold
/// exactly one copy.
std::vector<Id> record_holders(const DhtStore& store, const Id& key) {
  std::vector<Id> holders;
  for (const auto& [node, node_store] : store.node_stores()) {
    const std::size_t copies = node_store.get(key).size();
    EXPECT_LE(copies, 1u) << node.brief();
    if (copies > 0) holders.push_back(node);
  }
  return holders;
}

std::vector<Id> sorted(std::vector<Id> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(PlacementRule, OneSubstrateCallPerOperationAndWritesOnFirstLiveSuccessors) {
  using query::Query;
  const Query source = Query::parse("/article/conf/ICDCS");
  const Query target = Query::parse("/article[conf/ICDCS][year/2004]");
  const Id key = source.key();
  for (const std::size_t replication : {1u, 2u, 3u}) {
    for (const bool crash_primary : {false, true}) {
      SCOPED_TRACE("replication " + std::to_string(replication) +
                   (crash_primary ? ", crashed primary" : ", no injector"));
      dht::Ring ring = dht::Ring::with_nodes(12);
      CountingDht counted{ring};
      net::TrafficLedger ledger;
      RecordingTransport transport;
      net::MessageBus bus{transport};
      RecordingInjector failures;
      DhtStore store{counted, ledger, replication};
      index::IndexService service{counted, ledger, /*cache_capacity=*/0, replication};
      store.set_bus(&bus);
      service.set_bus(&bus);
      const std::vector<Id> successors = ring.replica_set(key, ring.size());
      std::size_t crashed = 0;
      if (crash_primary) {
        failures.crash(successors.front());
        crashed = 1;
        store.set_failures(&failures);
        service.set_failures(&failures);
      }
      // The first `replication` live successors, and every node that may
      // hold a copy.
      const std::vector<Id> writes(successors.begin() + static_cast<std::ptrdiff_t>(crashed),
                                   successors.begin() +
                                       static_cast<std::ptrdiff_t>(crashed + replication));
      const std::vector<Id> candidates = ring.replica_set(key, replication + crashed);
      const auto one_call = [&](const char* operation, const auto& run) {
        counted.calls = 0;
        run();
        EXPECT_EQ(counted.calls, 1u) << operation;
      };

      const Record record = make_record("v");
      one_call("put", [&] { EXPECT_EQ(store.put(key, record).node, writes.front()); });
      EXPECT_EQ(record_holders(store, key), sorted(writes));
      one_call("has_record", [&] { EXPECT_TRUE(store.has_record(key)); });
      store.drop_node(writes.back());
      one_call("ensure", [&] { EXPECT_EQ(store.ensure(key, record), 1u); });
      EXPECT_EQ(record_holders(store, key), sorted(writes));
      one_call("remove", [&] { EXPECT_TRUE(store.remove(key, record).removed); });
      EXPECT_EQ(store.total_records(), 0u);

      one_call("insert", [&] { EXPECT_EQ(service.insert(source, target), writes.front()); });
      const query::Query* s = service.interner().find_existing(source);
      const query::Query* t = service.interner().find_existing(target);
      std::vector<Id> holders;
      for (const auto& [node, state] : service.states()) {
        if (state.has_source(s)) holders.push_back(node);
      }
      EXPECT_EQ(holders, sorted(writes));

      transport.requested.clear();
      failures.attempted.clear();
      one_call("contact", [&] {
        const auto contacted = service.contact(source, s, /*consider_cache=*/false);
        EXPECT_EQ(contacted.node, writes.front());
        ASSERT_NE(contacted.state, nullptr);
        EXPECT_TRUE(contacted.state->has_source(s));
      });
      ASSERT_FALSE(transport.requested.empty());
      for (const std::vector<Id>* reached : {&transport.requested, &failures.attempted}) {
        for (const Id& node : *reached) {
          EXPECT_NE(std::find(candidates.begin(), candidates.end(), node), candidates.end())
              << node.brief();
        }
      }

      bool source_now_empty = false;
      one_call("remove_interned",
               [&] { EXPECT_TRUE(service.remove_interned(s, t, source_now_empty)); });
      EXPECT_TRUE(source_now_empty);
      EXPECT_EQ(service.totals().mappings, 0u);
    }
  }
}

TEST(ContactFailover, CachedShortcutMakesTheFirstReplicaUseful) {
  // At r = 2 contact() stops at the first replica that can serve the key.
  // Here no node holds a mapping under q, and only q's first write node
  // caches a shortcut under it.
  using query::Query;
  const Query q = Query::parse("/article/conf/ICDCS");
  const Query target = Query::parse("/article[conf/ICDCS][title/DHT][year/2004]");
  dht::Ring ring = dht::Ring::with_nodes(12);
  net::TrafficLedger ledger;
  index::IndexService service{ring, ledger, /*cache_capacity=*/0, /*replication=*/2};
  const std::vector<Id> writes = dht::write_nodes(ring, q.key(), 2, nullptr);
  ASSERT_EQ(writes.size(), 2u);
  const Query* pooled_q = service.interner().intern(q);
  ASSERT_TRUE(
      service.state_at(writes.front()).cache().insert(pooled_q, service.interner().intern(target)));
  ASSERT_EQ(service.totals().mappings, 0u);

  const auto cached = service.contact(q, pooled_q, /*consider_cache=*/true);
  EXPECT_EQ(cached.node, writes.front());
  EXPECT_EQ(cached.replicas_tried, 1);
  ASSERT_NE(cached.state, nullptr);
  EXPECT_EQ(cached.state->cache().targets_of(pooled_q).size(), 1u);
  EXPECT_EQ(ledger.queries.messages(), 1u);

  ledger.reset();
  const auto uncached = service.contact(q, pooled_q, /*consider_cache=*/false);
  EXPECT_EQ(uncached.node, writes.front());
  EXPECT_EQ(uncached.replicas_tried, 2);
  EXPECT_EQ(uncached.state, cached.state);
  EXPECT_FALSE(uncached.unreachable);
  EXPECT_EQ(ledger.queries.messages(), 2u);
}

}  // namespace
}  // namespace dhtidx::storage
