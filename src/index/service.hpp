// The distributed index service (Section IV).
//
// Indexes do not contain key-to-data mappings; they provide a query-to-query
// service. insert(q, qi) requires q ⊒ qi -- the covering check is enforced
// here, which is what makes the index "resilient to arbitrary linking"
// (Section IV-D): a file can only be indexed under queries that cover it.
//
// Fault tolerance (Section IV-D: the index "benefits from the mechanisms
// implemented by the DHT substrate ... such as data replication"): mappings
// are placed PAST-style on the first `replication` live nodes of the key's
// substrate replica set, lookups fail over across surviving replicas under
// net::kRetryPolicy, and rebalance() migrates/repairs entries after churn the
// same way DhtStore::rebalance does for stored records.
//
// The service owns the query pool, a QueryInterner holding one immutable
// Query instance per distinct query across the whole index. Per-node states,
// shortcut caches, lookups and replies pass `const Query*` refs into it, and
// IndexNodeState and ShortcutCache take nothing else: a query value becomes a
// ref only through this pool (insert interns; lookup, contact and the wire
// response resolve probe-only with find_existing, as do lookup sessions).
//
// Every published mapping lands through place(), the per-node apply that
// insert_interned and the op pipeline (sim::build_world) share, so each
// publish and replicate frame is built in one place.
#pragma once

#include <memory>

#include "common/flat_map.hpp"
#include "common/thread_annotations.hpp"
#include "dht/dht.hpp"
#include "index/node_state.hpp"
#include "net/bus.hpp"
#include "net/failure.hpp"
#include "net/stats.hpp"
#include "query/interner.hpp"
#include "query/query.hpp"

namespace dhtidx::index {

/// Distributed query-to-query index over a Dht.
class IndexService {
 public:
  /// `dht` and `ledger` must outlive the service. `cache_capacity` sizes the
  /// per-node shortcut caches (0 = unbounded). `replication` is the number of
  /// copies kept of every mapping (1 = the paper's single-copy baseline).
  IndexService(dht::Dht& dht, net::TrafficLedger& ledger, std::size_t cache_capacity = 0,
               std::size_t replication = 1)
      : dht_(dht),
        ledger_(ledger),
        cache_capacity_(cache_capacity),
        replication_(replication == 0 ? 1 : replication),
        interner_(std::make_unique<query::QueryInterner>()) {}

  /// Registers the mapping (source ; target) on h(source)'s dht::write_nodes.
  /// Throws InvariantError when source does not cover target.
  /// Build-time operation: does not count into the per-query traffic ledger.
  /// `now` is the publisher's logical time: re-inserting refreshes the
  /// mapping's soft-state stamp. Returns the first node that stores the
  /// mapping (the live primary).
  Id insert(const query::Query& source, const query::Query& target, std::uint64_t now = 0);

  /// insert() for callers that already hold refs from this service's interner
  /// (index_file, republish): skips the intern probe and reuses the refs'
  /// pre-computed DHT keys. Each write node's copy is placed by place().
  Id insert_interned(const query::Query* source, const query::Query* target,
                     std::uint64_t now = 0);

  /// The per-node apply of a publish: adds the mapping to `node`'s partition
  /// at once and, with a bus attached, posts its one-way frame (kPublish on
  /// the primary write node, kReplicate on the others). No covering check.
  /// Creates the partition only when the node has none, so concurrent
  /// appliers are safe once every partition exists.
  void place(const Id& node, const query::Query* source, const query::Query* target,
             std::uint64_t now, bool primary);

  /// Drops every mapping whose refresh stamp is older than `cutoff` on every
  /// node (soft-state expiry). Returns the number of mappings removed.
  std::size_t expire(std::uint64_t cutoff);

  /// Removes a mapping from every live replica; `source_now_empty` reports
  /// whether this was the last mapping under the source key (triggering
  /// recursive cleanup upstream).
  bool remove(const query::Query& source, const query::Query& target,
              bool& source_now_empty);

  /// remove() for callers that already hold refs from this service's
  /// interner: skips the probe-only resolution on every replica.
  bool remove_interned(const query::Query* source, const query::Query* target,
                       bool& source_now_empty);

  /// One failover contact with the replica set of h(q): the responsible node
  /// first, then surviving replicas, each under the retry policy. `state` is
  /// the partition of the node that answered (nullptr when the node holds no
  /// index state) -- never created as a side effect of reading. Records one
  /// query message per delivered attempt and each failed attempt as retry
  /// traffic; backoff adds up as virtual time in retry_backoff_ms().
  struct ContactResult {
    IndexNodeState* state = nullptr;
    Id node;
    int rpc_failures = 0;     ///< delivery attempts that failed
    int replicas_tried = 0;   ///< replicas successfully contacted
    bool unreachable = false; ///< no replica answered within the budget
  };
  ContactResult contact(const query::Query& q, bool consider_cache,
                        net::Action action = net::Action::kLookup);

  /// The "lookup(q)" operation of Section IV: all queries qi with a mapping
  /// (q ; qi) on the responsible node (or, under failures, on the first
  /// surviving replica that has them). Counts query/response traffic. The
  /// targets are interner-owned refs, valid for the service's lifetime.
  struct Reply {
    std::vector<const query::Query*> targets;
    Id node;
    int rpc_failures = 0;
    int replicas_tried = 0;
    bool unreachable = false;
  };
  /// `action` tags the wire request (kLookup for direct resolution,
  /// kSearchAll when issued by the exhaustive-search descent) so measured
  /// traffic can attribute the two flows; analytic accounting is unchanged.
  Reply lookup(const query::Query& q, net::Action action = net::Action::kLookup);

  /// The node currently responsible for q (no traffic accounted).
  Id node_for(const query::Query& q) { return dht_.lookup(q.key()).node; }

  /// Mutable per-node state (created on demand with the configured cache
  /// capacity). Structure-mutating: a FlatMap insert invalidates every
  /// outstanding reference, so this must never run concurrently with
  /// anything -- the sharded build pre-creates all partitions before its
  /// parallel phases for exactly this reason.
  IndexNodeState& state_at(const Id& node);

  /// Checked accessors: the node's partition, or nullptr when it has none.
  /// Unlike state_at these never fabricate an empty node as a side effect of
  /// reading (auditor/metrics paths must not grow the map they inspect), and
  /// are therefore safe for concurrent sharded appliers/feed workers while
  /// the map structure is frozen.
  IndexNodeState* find_state(const Id& node);
  const IndexNodeState* find_state(const Id& node) const;

  /// Discards a crashed node's whole partition (mappings and cache). Returns
  /// the number of mappings lost. Ring membership is not touched: an
  /// undetected crash leaves the node responsible until the DHT heals.
  std::size_t drop_node(const Id& node);

  /// Repairs placement after membership changes, mirroring
  /// DhtStore::rebalance: (1) mappings stranded on nodes outside their source
  /// key's replica set migrate to the current replica set (freshest stamp
  /// wins), and empty partitions of departed nodes are dropped; (2) with
  /// replication > 1, every mapping is copied to all of its replicas and
  /// stamps are made identical (the max across copies). Returns the number
  /// of copies created or refreshed. Maintenance operation: no traffic
  /// accounted.
  std::size_t rebalance();

  const FlatMap<Id, IndexNodeState>& states() const {
    topology_.assert_shared();  // single-owner read surface (metrics, auditor)
    return states_;
  }
  FlatMap<Id, IndexNodeState>& states() {
    topology_.assert_exclusive();  // single-owner mutation surface (tests, persist)
    return states_;
  }

  dht::Dht& dht() { return dht_; }
  net::TrafficLedger& ledger() { return ledger_; }
  const net::TrafficLedger& ledger() const { return ledger_; }

  /// The ledger accounting must write to right now: the calling thread's
  /// scoped override when one is installed (sharded feed workers collecting
  /// into private ledgers), otherwise the service's own. Every accounting
  /// site — here, in LookupEngine and in DhtStore — routes through this
  /// indirection.
  net::TrafficLedger& active_ledger() { return net::active(ledger_); }

  /// The service-wide query pool. Heap-allocated, so its address is stable
  /// across moves of the service itself.
  query::QueryInterner& interner() { return *interner_; }
  const query::QueryInterner& interner() const { return *interner_; }

  std::size_t replication() const { return replication_; }

  /// Wires the failure injector consulted on every delivery (nullptr = the
  /// network never fails, the seed behaviour).
  void set_failures(net::FailureInjector* failures) { failures_ = failures; }
  net::FailureInjector* failures() const { return failures_; }

  /// Routes this service's RPCs (publish, lookup, search-all, remove,
  /// replicate, repair) through a message bus: every operation additionally
  /// travels as a typed net::Message whose serialized size lands in the
  /// bus's measured ledger. nullptr (the default) keeps the pure in-process
  /// behaviour with analytic accounting only. The in-process state remains
  /// authoritative either way — the bus's serve/apply callbacks read and
  /// write the same node states at message-delivery time.
  void set_bus(net::MessageBus* bus) { bus_ = bus; }
  net::MessageBus* bus() const { return bus_; }

  /// Total virtual backoff time spent waiting between retries.
  double retry_backoff_ms() const { return backoff_ms_; }

  /// Aggregate statistics over all node states.
  struct Totals {
    std::size_t keys = 0;
    std::size_t mappings = 0;
    std::uint64_t bytes = 0;
    std::size_t cached_entries = 0;
    std::uint64_t cache_bytes = 0;
  };
  Totals totals() const;

 private:
  /// Runs the lookup RPC for `q` against `node` over the bus: request out,
  /// response built from the node's live index state (and shortcut bucket
  /// when `consider_cache`) at delivery time.
  void wire_lookup(const query::Query& q, const Id& node, net::Action action,
                   bool consider_cache);

  /// Builds the request leg of an index RPC carrying `q` (client → node).
  net::Message wire_request(net::Action action, const Id& node,
                            const query::Query& q) const;

  /// Runs the remove RPC against one replica; the response leg reports
  /// whether the mapping existed there.
  void wire_remove(const Id& node, const query::Query* source,
                   const query::Query* target, bool removed);

  dht::Dht& dht_;
  net::TrafficLedger& ledger_;
  std::size_t cache_capacity_;
  std::size_t replication_;
  net::FailureInjector* failures_ = nullptr;
  net::MessageBus* bus_ = nullptr;
  double backoff_ms_ = 0.0;
  std::unique_ptr<query::QueryInterner> interner_;

  /// Capability over the *structure* of states_ (which nodes have a
  /// partition). Exclusive = may insert/erase partitions (serial phases
  /// only: build pre-creation, churn repair, drop_node); shared = structure
  /// frozen, safe for concurrent readers that only mutate partition values
  /// they own (the sharded appliers' contract, DESIGN.md section 13).
  PhaseCapability topology_;
  FlatMap<Id, IndexNodeState> states_ DHTIDX_GUARDED_BY(topology_);
};

}  // namespace dhtidx::index
