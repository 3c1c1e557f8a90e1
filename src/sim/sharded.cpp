#include "sim/sharded.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "index/scheme.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {

namespace {

using query::Query;

/// Articles per bulk-synchronous build epoch. Fixed (never derived from the
/// shard count or machine), so the epoch boundaries — and therefore the
/// interner's growth schedule — are identical for every S.
constexpr std::size_t kBuildEpoch = 8192;

/// Queries per feed epoch of a cached streaming world. Observable semantics,
/// not a tuning knob: a session only hits shortcuts installed in *earlier*
/// epochs, so this constant moves hit ratios (DESIGN.md section 15.2). Like
/// kBuildEpoch it never depends on S or the machine. 1024 keeps the
/// deviation from the sequential feed below a percent at paper scale while
/// leaving each worker hundreds of sessions per barrier.
constexpr std::size_t kFeedEpoch = 1024;

/// Sessions per feed epoch, derived from the world: 1 for a materialized
/// world (the paper's sequential feed), kFeedEpoch for a cached streaming
/// one, and the whole feed for a cacheless one, whose sessions make no cache
/// mutation.
std::size_t feed_epoch(const SimulationConfig& config) {
  if (!config.streaming) return 1;
  if (!caching_enabled(config.policy)) return std::max<std::size_t>(config.queries, 1);
  return kFeedEpoch;
}

constexpr std::uint32_t kNoPending = 0xFFFFFFFFu;

/// One build-phase operation, totally ordered by (vt, seq): vt is the global
/// article index (disjoint across producers), seq the emission order within
/// the article. Draining a node's operations in this order reproduces the
/// sequential build exactly.
struct Op {
  std::uint64_t vt = 0;
  std::uint32_t seq = 0;
  bool is_store = false;  ///< store a record replica vs publish a mapping
  bool primary = false;   ///< publish ops: `node` is the source key's first write node
  Id node;                ///< the owning node this op applies to
  // Store ops: the record's DHT key and its index in the producer's epoch
  // record buffer.
  Id key;
  std::uint32_t record = 0;
  // Publish ops: interned refs when the query was already pooled when the
  // producer saw it, else slots in the producer's epoch pending queries
  // (resolved by the serial intern sub-phase).
  const Query* source = nullptr;
  const Query* target = nullptr;
  std::uint32_t source_pending = kNoPending;
  std::uint32_t target_pending = kNoPending;
};

/// One recorded cache mutation of a deferred feed epoch, totally ordered by
/// (vt, seq): vt is the global query index (disjoint across feed workers),
/// seq the emission order within the session. Replaying a cache's deltas in
/// this order reproduces the order a sequential pass over the epoch — serving
/// every session against the same frozen snapshot — would have mutated it.
struct CacheDelta {
  std::uint64_t vt = 0;
  std::uint32_t seq = 0;
  index::CacheDeltaKind kind = index::CacheDeltaKind::kTouch;
  Id node;  ///< the node whose cache this delta applies to
  // Interned refs when the query was pooled at record time, else slots in
  // the recorder's epoch pending queries.
  const Query* source = nullptr;
  const Query* target = nullptr;
  std::uint32_t source_pending = kNoPending;
  std::uint32_t target_pending = kNoPending;
};

/// Node id -> owning shard: position in the sorted member list modulo S.
/// Membership is fixed wherever deltas are queued (streaming forbids churn).
class ShardMap {
 public:
  ShardMap(std::vector<Id> members, std::size_t shards)
      : members_(std::move(members)), shards_(shards) {
    std::sort(members_.begin(), members_.end());
  }

  std::size_t shard_of(const Id& node) const {
    const auto it = std::lower_bound(members_.begin(), members_.end(), node);
    return static_cast<std::size_t>(it - members_.begin()) % shards_;
  }

  const std::vector<Id>& members() const { return members_; }

 private:
  std::vector<Id> members_;
  std::size_t shards_;
};

/// One worker's epoch buffers, the same for a build producer (Item = Op)
/// and a feed recorder (Item = CacheDelta): a queue of items per owner
/// shard, and the new (not yet pooled) queries the worker emitted this epoch,
/// in emission order, deduplicated by canonical form and resolved to
/// interned refs by the serial intern sub-phase.
template <typename T>
struct EpochBuffers {
  using Item = T;

  explicit EpochBuffers(std::size_t shards) : queues(shards) {}

  /// Phase capability over every buffer of the worker: exclusive while the
  /// owning worker fills them (produce or lookup sub-phase) and while the
  /// driver interns (serial sub-phase); shared during apply, where any
  /// worker reads any owner's buffers concurrently — and must never mutate
  /// them.
  PhaseCapability phase_;
  /// One queue per owner shard, (vt, seq)-sorted by construction.
  std::vector<std::vector<Item>> queues DHTIDX_GUARDED_BY(phase_);
  /// New queries, in emission order.
  std::vector<Query> pending DHTIDX_GUARDED_BY(phase_);
  /// canonical -> idx into pending. Exact-key probes only.
  // dhtidx-lint: allow(hot-path-map) "exact-key dedup probe table, never iterated; cleared every epoch"
  std::unordered_map<std::string, std::uint32_t> pending_index DHTIDX_GUARDED_BY(phase_);
  /// pending[i] -> interned ref.
  std::vector<const Query*> resolved DHTIDX_GUARDED_BY(phase_);

  /// Empties the buffers for the next epoch; the queues give back their
  /// memory.
  void reset() DHTIDX_REQUIRES(phase_) {
    queues.assign(queues.size(), {});
    pending.clear();
    pending_index.clear();
    resolved.clear();
  }

  /// Resolves `q` to either an already-pooled ref (read-only interner probe)
  /// or a worker-local pending slot, taking `q` (moved or copied) only when
  /// it is new: an interned query flowing back through a recorded delta costs
  /// one probe and no copy. The probe is safe concurrently: the pool only
  /// grows in the serial intern sub-phase between parallel phases. Returns
  /// the pooled instance or the pending copy, valid until the next resolve.
  template <typename Q>
  const Query& resolve(const query::QueryInterner& interner, Q&& q, const Query*& ref,
                       std::uint32_t& pending_slot) DHTIDX_REQUIRES(phase_) {
    if (const Query* existing = interner.find_existing(q)) {
      ref = existing;
      pending_slot = kNoPending;
      return *existing;
    }
    return enqueue(Query{std::forward<Q>(q)}, ref, pending_slot);
  }

  /// The serial intern sub-phase: intern() probes before inserting, so the
  /// same query pending in several workers resolves to one instance.
  void intern_all(query::QueryInterner& interner) DHTIDX_REQUIRES(phase_) {
    resolved.reserve(pending.size());
    for (Query& q : pending) resolved.push_back(interner.intern(std::move(q)));
  }

  /// The ref an item resolved at emission time, or its post-intern
  /// resolution when the query was new this epoch.
  const Query* ref_of(const Query* direct, std::uint32_t pending_slot) const
      DHTIDX_REQUIRES_SHARED(phase_) {
    return direct != nullptr ? direct : resolved[pending_slot];
  }

 private:
  const Query& enqueue(Query&& q, const Query*& ref, std::uint32_t& pending_slot)
      DHTIDX_REQUIRES(phase_) {
    ref = nullptr;
    const std::string canonical = q.canonical();
    const auto it = pending_index.find(canonical);
    if (it != pending_index.end()) {
      pending_slot = it->second;
      return pending[pending_slot];
    }
    pending_slot = static_cast<std::uint32_t>(pending.size());
    pending_index.emplace(canonical, pending_slot);
    return pending.emplace_back(std::move(q));
  }
};

/// A build producer: its epoch buffers and the records its store ops copy,
/// which each produce sub-phase clears before it fills them.
struct Producer : EpochBuffers<Op> {
  using EpochBuffers::EpochBuffers;
  std::vector<storage::Record> records DHTIDX_GUARDED_BY(phase_);
};

/// A feed worker's epoch buffers, which its LookupEngine reports to in
/// epochs longer than one session. Every delta is tagged with the session's
/// virtual time and binned by the owner shard of its node.
class FeedRecorder final : public EpochBuffers<CacheDelta>, public index::CacheDeltaRecorder {
 public:
  FeedRecorder(const query::QueryInterner& interner, const ShardMap& shard_map,
               std::size_t shards)
      : EpochBuffers(shards), interner_(interner), shard_map_(shard_map) {}

  /// Stamps the virtual time of the session about to run; deltas emitted
  /// until the next call carry (query_index, running seq).
  void begin_session(std::uint64_t query_index) DHTIDX_REQUIRES(phase_) {
    vt_ = query_index;
    seq_ = 0;
  }

  void record(index::CacheDeltaKind kind, const Id& node, const Query& source,
              const Query& target) override {
    phase_.assert_exclusive();  // lookup sub-phase: the worker is the sole owner
    CacheDelta delta;
    delta.vt = vt_;
    delta.seq = seq_++;
    delta.kind = kind;
    delta.node = node;
    resolve(interner_, source, delta.source, delta.source_pending);
    resolve(interner_, target, delta.target, delta.target_pending);
    queues[shard_map_.shard_of(node)].push_back(delta);
  }

 private:
  const query::QueryInterner& interner_;
  const ShardMap& shard_map_;
  std::uint64_t vt_ DHTIDX_GUARDED_BY(phase_) = 0;
  std::uint32_t seq_ DHTIDX_GUARDED_BY(phase_) = 0;
};

/// Runs `body(0..count-1)` on `count` workers; inline when count == 1 (the
/// single-shard path uses the exact same code, just without threads). The
/// join is the phase barrier; the first worker exception is rethrown.
void run_workers(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count <= 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> pool;
  pool.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    pool.emplace_back([&errors, &body, w] {
      try {
        body(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// S-way merge: drains `queues` (each already (vt, seq)-sorted, with vt
/// values disjoint across queues) in ascending global (vt, seq) order,
/// calling apply(queue_index, element) for each element. This is the one
/// total order both the build's operations and the feed's cache deltas
/// replay in — the order the sequential pass would have used.
template <typename T, typename Fn>
void merge_by_virtual_time(const std::vector<const std::vector<T>*>& queues, Fn&& apply) {
  std::vector<std::size_t> cursor(queues.size(), 0);
  while (true) {
    std::size_t best = queues.size();
    std::uint64_t best_vt = 0;
    std::uint32_t best_seq = 0;
    for (std::size_t p = 0; p < queues.size(); ++p) {
      const std::vector<T>& queue = *queues[p];
      if (cursor[p] >= queue.size()) continue;
      const T& item = queue[cursor[p]];
      if (best == queues.size() || item.vt < best_vt ||
          (item.vt == best_vt && item.seq < best_seq)) {
        best = p;
        best_vt = item.vt;
        best_seq = item.seq;
      }
    }
    if (best == queues.size()) break;
    apply(best, (*queues[best])[cursor[best]++]);
  }
}

/// Ends an epoch of the build or the feed once its workers have filled
/// their buffers. (intern) The calling thread interns every worker's new
/// queries, the only writes the shared pool ever sees. (apply) Worker t
/// drains the S queues addressed to its shard in (vt, seq) order and calls
/// land(t, owner, item) for each item, `owner` being the worker whose
/// buffers hold it. Then every worker's buffers are reset.
template <typename Worker, typename Land>
void intern_and_apply(std::vector<Worker>& workers, query::QueryInterner& interner,
                      const Land& land) {
  using Item = typename Worker::Item;
  for (Worker& worker : workers) {
    worker.phase_.assert_exclusive();  // serial sub-phase: the caller is alone
    worker.intern_all(interner);
  }
  run_workers(workers.size(), [&](std::size_t t) {
    std::vector<const std::vector<Item>*> queues;
    queues.reserve(workers.size());
    for (const Worker& worker : workers) {
      worker.phase_.assert_shared();  // apply sub-phase: buffers frozen
      queues.push_back(&worker.queues[t]);
    }
    merge_by_virtual_time<Item>(
        queues, [&](std::size_t p, const Item& item) { land(t, workers[p], item); });
  });
  for (Worker& worker : workers) {
    worker.phase_.assert_exclusive();  // between epochs: no workers running
    worker.reset();
  }
}

}  // namespace

void FeedTotals::fold(index::LookupOutcome outcome) {
  ++sessions;
  interactions += static_cast<std::uint64_t>(outcome.interactions);
  generalizations += static_cast<std::uint64_t>(outcome.generalization_steps);
  if (!outcome.found) ++failed_lookups;
  if (outcome.non_indexed) ++non_indexed;
  if (!outcome.found && !outcome.non_indexed) ++indexed_failures;
  if (outcome.cache_hit) {
    ++hits;
    if (outcome.cache_hit_position == 1) ++first_node_hits;
  }
  rpc_failures += static_cast<std::uint64_t>(outcome.rpc_failures);
  if (outcome.degraded) ++degraded;
  if (outcome.gave_up) ++gave_up;
  if (outcome.unreachable) ++unreachable;
  stale_shortcuts += static_cast<std::size_t>(outcome.stale_shortcuts);
  // By value: the feed passes each outcome as a temporary, so its
  // visited_nodes can be deduplicated in place.
  std::vector<Id>& nodes = outcome.visited_nodes;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (const Id& node : nodes) ++node_touches[node];
}

void FeedTotals::merge(const FeedTotals& other) {
  sessions += other.sessions;
  indexed_failures += other.indexed_failures;
  interactions += other.interactions;
  generalizations += other.generalizations;
  hits += other.hits;
  first_node_hits += other.first_node_hits;
  rpc_failures += other.rpc_failures;
  failed_lookups += other.failed_lookups;
  non_indexed += other.non_indexed;
  degraded += other.degraded;
  gave_up += other.gave_up;
  unreachable += other.unreachable;
  stale_shortcuts += other.stale_shortcuts;
  for (const auto& [node, touches] : other.node_touches) node_touches[node] += touches;
  ledger.merge(other.ledger);
}

std::size_t shard_count(std::size_t shards, std::size_t nodes) {
  const std::size_t count = std::max<std::size_t>(shards, 1);
  if (count > std::min(nodes, kMaxShards)) {
    throw InvariantError("shards = " + std::to_string(count) + " exceeds the node count (" +
                         std::to_string(nodes) + ") or kMaxShards (" +
                         std::to_string(kMaxShards) + ")");
  }
  return count;
}

template <typename Articles>
void build_world(const SimulationConfig& config, dht::Dht& dht, index::IndexService& service,
                 storage::DhtStore& store, const Articles& articles) {
  const std::size_t shards = shard_count(config.shards, dht.size());
  if (shards > 1 && (service.bus() != nullptr || store.bus() != nullptr)) {
    throw InvariantError("a build with a message bus runs on one shard");
  }
  const index::IndexingScheme scheme = index::IndexingScheme::make(config.scheme);
  query::QueryInterner& interner = service.interner();

  // Pre-create every node's index partition and record store. The outer
  // FlatMaps are structurally frozen before any worker runs: parallel phases
  // only mutate values they own, never the maps themselves (a FlatMap insert
  // would invalidate every other worker's references).
  const ShardMap shard_map{dht.node_ids(), shards};
  for (const Id& node : shard_map.members()) {
    service.state_at(node);
    store.node_store(node);
  }

  std::vector<Producer> producers(shards, Producer{shards});
  const std::size_t total = articles.size();

  for (std::size_t epoch_start = 0; epoch_start < total; epoch_start += kBuildEpoch) {
    const std::size_t epoch_end = std::min(total, epoch_start + kBuildEpoch);

    // (produce) -- take the articles, compute placements, emit operations.
    // Producer p owns articles i with i % S == p, walked in increasing i, so
    // each queue is (vt, seq)-sorted by construction.
    run_workers(shards, [&](std::size_t p) {
      Producer& producer = producers[p];
      producer.phase_.assert_exclusive();  // worker p is producer p's sole owner
      producer.records.clear();
      for (std::size_t i = epoch_start; i < epoch_end; ++i) {
        if (i % shards != p) continue;
        const biblio::Article& article = articles.article(i);
        const xml::Element descriptor = article.descriptor();
        const Query msd = Query::most_specific(descriptor);
        std::uint32_t seq = 0;

        // The stored file record, one op per write node of the MSD's key.
        const Id file_key = msd.key();
        const std::uint32_t record_slot = static_cast<std::uint32_t>(producer.records.size());
        producer.records.push_back(index::IndexBuilder::file_record(
            descriptor, article.file_name(), article.file_bytes));
        for (const Id& node :
             dht::write_nodes(dht, file_key, store.replication(), store.failures())) {
          Op op;
          op.vt = i;
          op.seq = seq++;
          op.is_store = true;
          op.node = node;
          op.key = file_key;
          op.record = record_slot;
          producer.queues[shard_map.shard_of(op.node)].push_back(op);
        }

        // The scheme's mappings, one op per write node of the source key. A
        // pooled source lends its warm key; only a new one is hashed.
        std::vector<index::Mapping> mappings = scheme.mappings_for(msd);
        for (index::Mapping& m : mappings) {
          Op op;
          op.vt = i;
          const Id source_key =
              producer.resolve(interner, std::move(m.source), op.source, op.source_pending)
                  .key();
          producer.resolve(interner, std::move(m.target), op.target, op.target_pending);
          const std::vector<Id> replicas = dht::write_nodes(
              dht, source_key, service.replication(), service.failures());
          for (const Id& replica : replicas) {
            Op placed = op;
            placed.seq = seq++;
            placed.node = replica;
            placed.primary = replica == replicas.front();
            producer.queues[shard_map.shard_of(replica)].push_back(placed);
          }
        }
      }
    });

    // (intern, apply) -- worker t places each operation addressed to its
    // shard on the owned node.
    intern_and_apply(producers, interner, [&](std::size_t, const Producer& producer,
                                              const Op& op) {
      // Appliers only ever *read* producer state: a record replicated across
      // nodes owned by different shards is copied concurrently, so there must
      // be no mutating fast path (a "move on last replica" would race with
      // another shard's copy of the same record).
      producer.phase_.assert_shared();  // read-only rights, shared with peers
      if (op.is_store) {
        store.place(op.node, op.key, producer.records[op.record], net::Action::kStore);
      } else {
        // No covering check here: the scheme guarantees source ⊒ target by
        // construction and the DHTIDX_AUDIT pass re-verifies it.
        service.place(op.node, producer.ref_of(op.source, op.source_pending),
                      producer.ref_of(op.target, op.target_pending), 0, op.primary);
      }
    });
  }
}

template void build_world(const SimulationConfig&, dht::Dht&, index::IndexService&,
                          storage::DhtStore&, const biblio::Corpus&);
template void build_world(const SimulationConfig&, dht::Dht&, index::IndexService&,
                          storage::DhtStore&, const biblio::ArticleStream&);

void build_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                           index::IndexService& service, storage::DhtStore& store,
                           const biblio::ArticleStream& stream) {
  build_world(config, dht, service, store, stream);
}

FeedTotals feed_world(const SimulationConfig& config, dht::Dht& dht,
                      index::IndexService& service, storage::DhtStore& store,
                      const RequestSource& request_at, const EpochEvents& at_epoch_start,
                      std::size_t first, std::size_t last) {
  const std::size_t shards = shard_count(config.shards, dht.size());
  const std::size_t epoch = feed_epoch(config);
  // At epoch length 1 each engine's own ImmediateCacheApply applies a delta
  // when the session reports it. Longer epochs read the caches as a frozen
  // snapshot and replay the recorded deltas in the apply sub-phase.
  const bool deferred = epoch > 1;
  // One FeedTotals per worker. Worker w owns accumulators[w] in every
  // parallel sub-phase (lookup and apply alike); the barriers between the
  // phases order all access.
  std::vector<FeedTotals> accumulators(shards);
  const ShardMap shard_map{dht.node_ids(), shards};
  query::QueryInterner& interner = service.interner();
  std::vector<FeedRecorder> recorders;
  recorders.reserve(shards);
  std::deque<index::LookupEngine> engines;
  for (std::size_t w = 0; w < shards; ++w) {
    recorders.emplace_back(interner, shard_map, shards);
    engines.emplace_back(service, store, index::LookupConfig{config.policy});
    if (deferred) engines.back().set_cache_recorder(&recorders.back());
  }

  // (lookup) -- worker w serves the epoch's sessions with index ≡ w (mod S),
  // accounting traffic into its own ledger. Walked in increasing i, so each
  // recorder queue is (vt, seq)-sorted by construction. Built once: at epoch
  // length 1 it runs once per session.
  std::size_t epoch_start = first;
  std::size_t epoch_end = first;
  const std::function<void(std::size_t)> lookup = [&](std::size_t w) {
    FeedTotals& acc = accumulators[w];
    const net::ScopedLedgerOverride scope{&acc.ledger};
    FeedRecorder& recorder = recorders[w];
    recorder.phase_.assert_exclusive();  // worker w is recorder w's sole owner
    for (std::size_t i = epoch_start; i < epoch_end; ++i) {
      if (i % shards != w) continue;
      recorder.begin_session(i);
      const workload::StreamingRequest request = request_at(i);
      acc.fold(engines[w].resolve(request.query, request.target_msd));
    }
  };

  for (; epoch_start < last; epoch_start = epoch_end) {
    epoch_end = std::min(last, epoch_start + epoch);
    if (at_epoch_start) at_epoch_start(epoch_start);
    run_workers(shards, lookup);
    if (!deferred) continue;

    // (intern, apply) -- worker t applies each delta addressed to its shard
    // to the cache it owns through apply_cache_delta, the rule an immediate
    // apply uses. Install traffic lands in the applier's own ledger.
    intern_and_apply(recorders, interner, [&](std::size_t t, const FeedRecorder& recorder,
                                              const CacheDelta& delta) {
      const net::ScopedLedgerOverride scope{&accumulators[t].ledger};
      recorder.phase_.assert_shared();  // read-only rights, shared with peers
      index::IndexNodeState* state = service.find_state(delta.node);
      if (state == nullptr) {
        throw InvariantError("cache delta for a node with no index partition");
      }
      index::apply_cache_delta(service, delta.node, *state, delta.kind,
                               recorder.ref_of(delta.source, delta.source_pending),
                               recorder.ref_of(delta.target, delta.target_pending));
    });
  }

  FeedTotals totals;
  for (const FeedTotals& acc : accumulators) totals.merge(acc);
  return totals;
}

FeedTotals feed_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                                index::IndexService& service,
                                storage::DhtStore& store,
                                const workload::StreamingWorkload& workload) {
  return feed_world(
      config, dht, service, store,
      [&workload](std::size_t i) { return workload.request_at(i); }, {}, 0,
      config.queries);
}

}  // namespace dhtidx::sim
