// DHT-backed storage facade.
//
// Routes put/get/remove operations to the node responsible for each key
// (resolved through any Dht implementation) and keeps one NodeStore per peer.
// This is the "Publication index" of Figure 5: the raw key-to-data layer on
// which the query indexes sit. With a FailureInjector wired in, operations
// discover dead replicas by timeout (under net::kRetryPolicy) and fail over
// to the surviving copies instead of throwing.
#pragma once

#include "common/flat_map.hpp"
#include "common/thread_annotations.hpp"
#include "dht/dht.hpp"
#include "net/bus.hpp"
#include "net/failure.hpp"
#include "net/stats.hpp"
#include "storage/node_store.hpp"

namespace dhtidx::storage {

/// Outcome of a storage operation.
struct StoreResult {
  Id node;  ///< first peer that stored the record (the live primary)
};

/// Key/value storage distributed over a Dht.
class DhtStore {
 public:
  /// `dht` and `ledger` must outlive the store. Traffic for storage
  /// operations is recorded into the ledger's query/response categories.
  /// `replication` copies of each record are kept on the key's replica set
  /// (Section IV-D: the index "can benefit from the mechanisms implemented
  /// by the DHT substrate ... such as data replication").
  DhtStore(dht::Dht& dht, net::TrafficLedger& ledger, std::size_t replication = 1)
      : dht_(dht), ledger_(ledger), replication_(replication < 1 ? 1 : replication) {}

  std::size_t replication() const { return replication_; }

  /// Stores a copy of `record` on each of the key's write nodes
  /// (dht::write_nodes): the responsible node and its replicas, skipping
  /// crashed candidates. Each copy is charged as a query.
  StoreResult put(const Id& key, const Record& record);

  /// The per-node apply of a store, shared by put() and the op pipeline
  /// (sim::build_world): posts the kStore frame when a bus is attached and
  /// appends the record. Charges no traffic. Creates the node's store only
  /// when it has none, so concurrent appliers are safe once every store
  /// exists.
  void place(const Id& node, const Id& key, const Record& record);

  /// Fetches all records under `key`. The responsible node is asked first;
  /// when it has nothing (e.g. it lost its store in a crash), the remaining
  /// replicas are tried in order, one extra request each. Failed deliveries
  /// are retried per net::kRetryPolicy and counted in `rpc_failures`;
  /// `unreachable` is set when no replica answered at all.
  struct GetResult {
    const std::vector<Record>* records;  ///< never null; may be empty
    Id node;
    int hops = 0;
    int replicas_tried = 1;
    int rpc_failures = 0;
    bool unreachable = false;
  };
  GetResult get(const Id& key);

  /// Removes one matching record from every live replica. Returns the
  /// first replica visited and whether a record was removed.
  struct RemoveResult {
    Id node;
    bool removed = false;
  };
  RemoveResult remove(const Id& key, const Record& record);

  /// Publisher re-announce (soft-state maintenance): re-creates the record
  /// on every live replica that lacks it. Returns the number of copies
  /// created. Maintenance operation: no ledger traffic, like rebalance().
  std::size_t ensure(const Id& key, const Record& record);

  /// True when any live replica of `key` holds at least one record.
  /// Traffic-free maintenance read.
  bool has_record(const Id& key);

  /// Direct access to a node's local store (metrics, tests, migration).
  /// Creates an empty store when the node has none -- structure-mutating, so
  /// it must never run concurrently with anything (the sharded build
  /// pre-creates every store before its parallel phases).
  NodeStore& node_store(const Id& node) {
    topology_.assert_exclusive();  // operator[] may insert
    return stores_[node];
  }

  /// Checked accessors: the node's store, or nullptr when it has none.
  /// Unlike node_store these never fabricate an empty node as a side effect
  /// of reading (auditor/metrics paths must not grow the map they inspect),
  /// which also makes them the safe surface for concurrent sharded appliers
  /// while the map structure is frozen.
  NodeStore* find_node_store(const Id& node);
  const NodeStore* find_node_store(const Id& node) const;

  const FlatMap<Id, NodeStore>& node_stores() const {
    topology_.assert_shared();  // read surface (metrics, auditor)
    return stores_;
  }

  /// Re-homes every record according to the current Dht membership: records
  /// on nodes outside their key's replica set move to the primary. Returns
  /// the number of records moved. Call after membership changes.
  std::size_t rebalance();

  /// Simulates losing a node's disk (crash without recovery). Returns the
  /// number of records destroyed. With replication > 1 the data remains
  /// readable from the other replicas.
  std::size_t drop_node(const Id& node);

  /// Wires the failure injector consulted on every delivery (nullptr = the
  /// network never fails, the seed behaviour).
  void set_failures(net::FailureInjector* failures) { failures_ = failures; }
  net::FailureInjector* failures() const { return failures_; }

  /// Routes store/fetch/remove/replicate/repair RPCs through a message bus
  /// (see IndexService::set_bus): each operation additionally travels as a
  /// typed net::Message whose serialized size lands in the bus's measured
  /// ledger. nullptr (the default) keeps pure in-process behaviour.
  void set_bus(net::MessageBus* bus) { bus_ = bus; }
  net::MessageBus* bus() const { return bus_; }

  /// Total stored bytes across all nodes.
  std::uint64_t total_bytes() const;

  /// Total records across all nodes.
  std::size_t total_records() const;

 private:
  /// Builds a storage-layer wire message carrying `key` (and optionally one
  /// record's kind and payload) from the client to `node`.
  net::Message wire_message(net::Action action, const Id& node, const Id& key,
                            const Record* record) const;

  /// Records under `key` on `node` without creating the node's store.
  const std::vector<Record>& records_at(const Id& node, const Id& key) const;

  dht::Dht& dht_;
  net::TrafficLedger& ledger_;
  std::size_t replication_;
  net::FailureInjector* failures_ = nullptr;
  net::MessageBus* bus_ = nullptr;

  /// Capability over the *structure* of stores_ (which nodes have a store).
  /// Exclusive = may insert/erase stores (serial phases: placement, repair,
  /// drop_node); shared = structure frozen, concurrent readers may mutate
  /// only store values they own (the sharded appliers' contract).
  PhaseCapability topology_;
  // Sorted flat storage; iterated by rebalance/metrics in ascending node-id
  // order exactly like the std::map it replaced (determinism requirement).
  FlatMap<Id, NodeStore> stores_ DHTIDX_GUARDED_BY(topology_);
};

}  // namespace dhtidx::storage
