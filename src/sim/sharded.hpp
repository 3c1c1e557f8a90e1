// Streaming world source and its shard-concurrent feed (ROADMAP item 1: the
// paper's world at 100x scale on one machine).
//
// sim::run_simulation is the one simulation driver. It takes its world from
// one of two sources -- a materialized biblio::Corpus indexed through
// IndexBuilder, or the streaming source below -- runs the matching feed, and
// fills SimulationResults from one collector. This header is the streaming
// half: build_streaming_world and feed_streaming_world, plus FeedTotals, the
// fold every feed (sequential or sharded) sums its session outcomes into.
//
// A streaming cell never materializes its workload: articles come from
// biblio::ArticleStream and queries from workload::StreamingWorkload, both
// counter-addressable (item i is a pure function of (config, i)), so peak RSS
// scales with live index state, not workload size. That counter addressing is
// also what makes sharding sound: any partition of the item space across S
// workers generates the same items.
//
// Execution model (DESIGN.md sections 12 and 15 have the full rules):
//
//  - One shared world. The IndexService (with its query interner), the
//    DhtStore and the Ring are process-global — per-shard slices would break
//    `const Query*` identity, the invariant the whole PR 5 hot path rests on.
//    A shard owns a partition of the *node ids* (position in the sorted
//    member list modulo S); only the owner ever mutates a node's index
//    partition, record store or shortcut cache.
//  - Build = bulk-synchronous epochs. Each epoch of articles runs three
//    sub-phases: (produce) S workers synthesize their articles, compute
//    records, scheme mappings and replica placements, and emit operations
//    into per-(producer, owner-shard) queues tagged with (virtual time = the
//    global article index, seq = emission order within the article);
//    (intern) the driver serially interns the epoch's new queries — the only
//    writes the shared interner ever sees; (apply) S workers each merge the
//    queues addressed to their shard by (vt, seq) and apply the operations to
//    the nodes they own. vt values are disjoint across producers, so the
//    merged order is a total order identical to the sequential build's — the
//    results are bit-identical for every S.
//  - Cacheless feed = embarrassingly parallel sessions. CachePolicy::kNone
//    sessions are read-only on all shared state; each worker runs the
//    sessions with index ≡ worker (mod S), accounts traffic into a private
//    ledger through net::ScopedLedgerOverride, and the driver folds the
//    integer accumulators — order-independent, so again bit-identical across
//    S.
//  - Caching feed = bulk-synchronous query epochs, the build pattern one
//    level up (DESIGN.md section 15). Each epoch of queries runs (lookup) S
//    workers serving their session slice read-only against the frozen
//    shortcut caches, with every intended cache mutation recorded as a
//    (vt = query index, seq)-tagged delta in per-(worker, owner-shard)
//    queues; (intern) the driver serially interns queries the deltas
//    reference that the pool has not seen; (apply) S workers each merge the
//    delta queues addressed to their shard by (vt, seq) and replay them
//    against the caches they own. MRU order, LRU evictions, hit ratios and
//    install traffic follow the same total order for every S — bit-identical
//    across shard counts, including S = 1 (which runs the identical epoch
//    code inline).
//
// Restrictions, checked by run_simulation (InvariantError otherwise): Ring
// substrate, in-process transport (no wire layer: sharded sessions run on
// several threads, and MessageBus is single-threaded), no churn or chaos, no
// shared corpus; shards > 1 additionally requires a streaming world.
#pragma once

#include <cstdint>
#include <map>

#include "biblio/stream.hpp"
#include "index/lookup.hpp"
#include "index/service.hpp"
#include "net/stats.hpp"
#include "sim/metrics.hpp"
#include "sim/simulation.hpp"
#include "storage/dht_store.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {

/// Builds the full index and record store for a streaming world using
/// config.shards producers/appliers. Exposed so tests can audit a sharded
/// build directly. `service` and `store` must be empty and share `dht`.
void build_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                           index::IndexService& service, storage::DhtStore& store,
                           const biblio::ArticleStream& stream);

/// Aggregated feed-phase measurements. The only place session outcomes are
/// summed: the sequential feed folds each outcome here, every sharded feed
/// worker folds into its own FeedTotals, and the workers are merged after the
/// final barrier. Integer sums throughout, so merging in any order reproduces
/// a one-worker feed bit for bit.
struct FeedTotals {
  std::uint64_t interactions = 0;
  std::uint64_t generalizations = 0;
  std::uint64_t hits = 0;
  std::uint64_t first_node_hits = 0;
  std::uint64_t rpc_failures = 0;
  std::size_t failed_lookups = 0;
  std::size_t non_indexed = 0;
  std::size_t degraded = 0;
  std::size_t gave_up = 0;
  std::size_t unreachable = 0;
  std::size_t stale_shortcuts = 0;
  /// Unique-node touch counts per session, summed; iterated in sorted Id
  /// order when the driver derives node_load_fractions.
  // dhtidx-lint: allow(hot-path-map) "merged once per feed, never touched per query; sorted iteration drives deterministic load fractions"
  std::map<Id, std::uint64_t> node_touches;
  net::TrafficLedger ledger;  ///< all feed traffic (worker + apply charges)

  /// Adds one session's outcome.
  void fold(const index::LookupOutcome& outcome);
  /// Adds another worker's totals.
  void merge(const FeedTotals& other);
};

/// Runs the query feed over an already-built streaming world with
/// config.shards workers: one read-only parallel pass for cacheless
/// policies, bulk-synchronous lookup/intern/apply query epochs for caching
/// policies. Exposed so tests can audit the cache state of a sharded cached
/// world directly (run_simulation composes build + feed).
FeedTotals feed_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                                index::IndexService& service,
                                storage::DhtStore& store,
                                const workload::StreamingWorkload& workload);

}  // namespace dhtidx::sim
